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
Alg. 2.6.7, on the Gram matrix), with the same integers-only contract.
"""

from __future__ import annotations

from math import isqrt, lcm

from .errors import BoundTooLarge

DEFAULT_CAP = 5_000_000

# Lovasz constant delta = 99/100 of the reduction
_DELTA_NUM, _DELTA_DEN = 99, 100


def lll_reduce(gram: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """(R, U) with U unimodular, R = U G U^T LLL-reduced (delta = 99/100).

    Row k of U holds the coordinates of the k-th reduced basis vector in the
    input basis.  The Gram-Schmidt data are kept as the integers
    d[i] = det of the leading i x i block and lam[k][j] = d[j+1] mu_kj, so
    every division below is exact.  Raises ValueError when the form is not
    positive definite.
    """
    n = len(gram)
    G = [list(row) for row in gram]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def reduce(k: int, l: int) -> None:
        """Size-reduce b_k against b_l (Cohen's RED)."""
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) <= dl:
            return
        q = (2 * lam[k][l] + dl) // (2 * dl)  # nearest integer to mu_kl
        U[k] = [a - q * b for a, b in zip(U[k], U[l])]
        G[k] = [a - q * b for a, b in zip(G[k], G[l])]
        for row in G:
            row[k] -= q * row[l]
        lam[k][l] -= q * dl
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k: int, kmax: int) -> None:
        """Exchange b_{k-1} and b_k and update the Gram-Schmidt data (Cohen's SWAPI)."""
        U[k - 1], U[k] = U[k], U[k - 1]
        G[k - 1], G[k] = G[k], G[k - 1]
        for row in G:
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
    return G, U


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
    """
    n = len(gram)
    minors, m = _ldl_fraction_free(gram)
    if budget < 0:
        return []
    scale = lcm(*(minors[k] * minors[k + 1] for k in range(n)))
    weights = [scale // (minors[k] * minors[k + 1]) for k in range(n)]
    out: list[tuple[int, ...]] = []
    form = (m, minors, weights, scale, scale * budget, cap, second)
    _search(n - 1, scale * budget, 0, [0] * n, form, out)
    return out


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
