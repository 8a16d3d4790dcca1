"""Exact enumeration of short vectors of a positive definite integer Gram
matrix, and the integral LLL reduction that makes it cheap.

Branch-and-bound in the Fincke-Pohst style over a fraction-free (Bareiss)
LDL^T decomposition, in integer arithmetic only.  With leading principal
minors D_0 = 1, D_1, ..., D_n and Bareiss numerators M[k][j],

    x^T G x = sum_k t_k^2 / (D_k D_{k+1}),  t_k = D_{k+1} x_k + sum_{j>k} M[k][j] x_j,

so after scaling by E = lcm_k(D_k D_{k+1}) level k spends w_k t_k^2 of an
integer budget, w_k = E / (D_k D_{k+1}).  The interval of x_k is exact:
|t_k| <= isqrt(R // w_k) for the remaining budget R, and a vector's value
x^T G x is (E * budget - R_leaf) / E, read off the budget left at its leaf.
A second integer form W can ride along: each level adds its term
(W_kk x_k + 2 sum_{j>k} W_kj x_j) x_k, so every entry also carries x^T W x
without a separate evaluation.  No floating point and no rational
arithmetic is used.  One vector per +-pair is returned: the highest-index
nonzero coordinate is positive.

The search visits every node whose partial sum fits the budget, so its cost
follows how skewed the basis is.  `lll_reduce` first brings the Gram to an
LLL-reduced one (Cohen, A Course in Computational Algebraic Number Theory,
Alg. 2.6.7, on the Gram matrix), with the same integers-only contract; it
keeps no transform, and carries a second form through the same row and
column operations instead.  A ball whose lattice-point count provably
exceeds the cap (a volume bound from the determinant) is refused before
the search builds anything.
"""

from __future__ import annotations

from math import factorial, isqrt, lcm, prod

from .errors import BoundTooLarge

DEFAULT_CAP = 5_000_000

# Lovasz constant delta = 99/100 of the reduction
_DELTA_NUM, _DELTA_DEN = 99, 100


def lll_reduce(
    gram: list[list[int]], second: list[list[int]] | None = None
) -> tuple[list[list[int]], list[list[int]] | None]:
    """(R, R2): R = U G U^T LLL-reduced (delta = 99/100) for some unimodular
    U, and R2 = U W U^T for the optional second form W (None without one).

    U itself is not kept: every row and column operation on G is applied to
    W as well.  The Gram-Schmidt data are kept as the integers d[i] = det
    of the leading i x i block and lam[k][j] = d[j+1] mu_kj, so every
    division below is exact.  Raises ValueError when the form is not
    positive definite.
    """
    n = len(gram)
    forms = [[list(row) for row in gram]]
    if second is not None:
        forms.append([list(row) for row in second])
    G = forms[0]
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def reduce(k: int, l: int) -> None:
        """Size-reduce b_k against b_l (Cohen's RED)."""
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) <= dl:
            return
        q = (2 * lam[k][l] + dl) // (2 * dl)  # nearest integer to mu_kl
        for F in forms:
            F[k] = [a - q * b for a, b in zip(F[k], F[l])]
            for row in F:
                row[k] -= q * row[l]
        lam[k][l] -= q * dl
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k: int, kmax: int) -> None:
        """Exchange b_{k-1} and b_k and update the Gram-Schmidt data (Cohen's SWAPI)."""
        for F in forms:
            F[k - 1], F[k] = F[k], F[k - 1]
            for row in F:
                row[k - 1], row[k] = row[k], row[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        mu = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
            lam[i][k - 1] = (b * t + mu * lam[i][k]) // d[k + 1]
        d[k] = b

    if n:
        d[1] = G[0][0]
        if d[1] <= 0:
            raise ValueError("gram matrix is not positive definite")
    k, kmax = 1, 0
    while k < n:
        if k > kmax:  # incremental Gram-Schmidt for the new vector b_k
            kmax = k
            for j in range(k + 1):
                u = G[k][j]
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u <= 0:
                    raise ValueError("gram matrix is not positive definite")
                else:
                    d[k + 1] = u
        reduce(k, k - 1)
        mu = lam[k][k - 1]
        if _DELTA_DEN * d[k + 1] * d[k - 1] < _DELTA_NUM * d[k] * d[k] - _DELTA_DEN * mu * mu:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return G, (forms[1] if second is not None else None)


def _ldl_fraction_free(gram: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Leading principal minors [D_0 = 1, ..., D_n] and Bareiss numerators M.

    M[k][j] (j > k) is D_k times the entry (k, j) of the k-th Schur
    complement, an integer minor of the Gram; only the upper triangle of M
    is meaningful.  Raises ValueError when the form is not positive
    definite.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    minors = [1]
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            raise ValueError("gram matrix is not positive definite")
        prev = minors[-1]
        for i in range(k + 1, n):
            for j in range(i, n):
                a[i][j] = (pivot * a[i][j] - a[k][i] * a[k][j]) // prev  # exact (Sylvester)
        minors.append(pivot)
    return minors, a


def short_vectors(
    gram: list[list[int]], budget: int, cap: int = DEFAULT_CAP, second: list[list[int]] | None = None
) -> list[tuple[int, ...]]:
    """All x != 0 with x^T G x <= budget, one x per {x, -x}, in a fixed order.

    Each entry is (x_0, ..., x_{n-1}, x^T G x): the coordinates, then the
    value.  With a second integer Gram W (symmetric, any signature) each
    entry ends with x^T W x as well.  A flat tuple of integers rather than a
    pair, so the garbage collector stops tracking it at its first pass.
    Coordinates are chosen from the last to the first, each in increasing
    order, so the output is ordered by the reversed coordinate tuple.
    Raises BoundTooLarge past `cap` entries, and before the search when a
    volume bound shows that the ball holds more.
    """
    n = len(gram)
    minors, m = _ldl_fraction_free(gram)
    if budget < 0:
        return []
    if _surely_exceeds(gram, minors[n], budget, 2 * cap + 1):
        raise BoundTooLarge(f"enumeration would exceed cap of {cap} vectors")
    scale = lcm(*(minors[k] * minors[k + 1] for k in range(n)))
    weights = [scale // (minors[k] * minors[k + 1]) for k in range(n)]
    out: list[tuple[int, ...]] = []
    form = (m, minors, weights, scale, scale * budget, cap, second)
    _search(n - 1, scale * budget, 0, [0] * n, form, out)
    return out


def _surely_exceeds(gram: list[list[int]], det: int, budget: int, count: int) -> bool:
    """Whether the ball x^T G x <= budget surely holds more than `count` lattice points.

    With mu the covering radius, the cells of the points in the ball of
    radius r = sqrt(budget) cover the ball of radius r - mu, so there are at
    least vol(B(r - mu)) / sqrt(det) of them; Babai's nearest plane gives mu
    <= sqrt(sum |b_i*|^2) / 2 <= sqrt(trace G) / 2.  Checked on squares in
    integers, with r rounded down, sqrt(trace G) up and pi replaced by
    333/106 < pi: vol(B(rho))^2 = pi^n rho^(2n) / Gamma(n/2 + 1)^2.
    """
    n = len(gram)
    trace = sum(gram[i][i] for i in range(n))
    s = isqrt(trace)
    s += s * s < trace  # ceil(sqrt(trace G))
    a = 2 * isqrt(budget) - s  # rho >= a / 2
    if a <= 0:
        return False
    m = n // 2
    if n % 2:  # Gamma(m + 3/2)^2 = ((2m+1)!!)^2 pi / 4^(m+1)
        gamma_num, gamma_den = prod(range(1, n + 1, 2)) ** 2, 4 ** (m + 1)
    else:
        gamma_num, gamma_den = factorial(m) ** 2, 1
    return 333 ** (2 * m) * a ** (2 * n) * gamma_den > count * count * det * 106 ** (2 * m) * 4**n * gamma_num


def _search(level, rest, acc, x, form, out) -> None:
    """DFS over x[level], then the coordinates below it; `rest` is the scaled budget left.

    `acc` is the second form's value so far, sum_{k > level} (W_kk x_k +
    2 sum_{j>k} W_kj x_j) x_k; each level adds its own term, so a leaf run
    reads x^T W x as a quadratic in x_0, like the main value.  While every
    coordinate above `level` is zero the current one starts at 0, so exactly
    one vector of each pair {x, -x} is visited.  A module-level function
    rather than a closure, so no reference cycle keeps `out` alive.
    """
    m, minors, weights, scale, total, cap, W = form
    pivot = minors[level + 1]
    row = m[level]
    center = 0
    for j in range(level + 1, len(x)):
        center += row[j] * x[j]
    w = weights[level]
    radius = isqrt(rest // w)
    lo = -((radius + center) // pivot)  # smallest x with pivot*x + center >= -radius
    hi = (radius - center) // pivot
    if not any(x[level + 1 :]):
        lo = max(lo, 1 if level == 0 else 0)  # level 0 also skips the zero vector
    if lo > hi:
        return
    if W is not None:
        wrow = W[level]
        wdiag = wrow[level]
        wcenter = 0
        for j in range(level + 1, len(x)):
            wcenter += wrow[j] * x[j]
        wcenter *= 2
    if level == 0:
        tail = tuple(x[1:])
        # the leaf leaves rest - w t^2 of the budget, so the value is (total - rest + w t^2) / E;
        # with t = pivot v + center that is (pivot v + 2 center) v plus the value at v = 0
        base = (total - rest + w * center * center) // scale
        center *= 2
        if W is None:
            out += [(v, *tail, (pivot * v + center) * v + base) for v in range(lo, hi + 1)]
        else:
            out += [
                (v, *tail, (pivot * v + center) * v + base, (wdiag * v + wcenter) * v + acc)
                for v in range(lo, hi + 1)
            ]
        if len(out) > cap:
            raise BoundTooLarge(f"enumeration exceeded cap of {cap} vectors")
        return
    for v in range(lo, hi + 1):
        t = pivot * v + center
        x[level] = v
        _search(level - 1, rest - w * t * t, acc if W is None else acc + (wdiag * v + wcenter) * v, x, form, out)
    x[level] = 0
