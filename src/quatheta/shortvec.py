"""Exact enumeration of short vectors of a positive definite integer Gram matrix.

Branch-and-bound in the Fincke-Pohst style over a fraction-free (Bareiss)
LDL^T decomposition, in integer arithmetic only.  With leading principal
minors D_0 = 1, D_1, ..., D_n and Bareiss numerators M[k][j],

    x^T G x = sum_k t_k^2 / (D_k D_{k+1}),  t_k = D_{k+1} x_k + sum_{j>k} M[k][j] x_j,

so after scaling by E = lcm_k(D_k D_{k+1}) level k spends w_k t_k^2 of an
integer budget, w_k = E / (D_k D_{k+1}).  The interval of x_k is exact:
|t_k| <= isqrt(R // w_k) for the remaining budget R.  No floating point and
no rational arithmetic is used.  One vector per +-pair is returned: the
highest-index nonzero coordinate is positive.
"""

from __future__ import annotations

from math import isqrt, lcm

from .errors import BoundTooLarge

DEFAULT_CAP = 5_000_000


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


def short_vectors(gram: list[list[int]], budget: int, cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """All x != 0 with x^T G x <= budget, one representative per {x, -x}, in a fixed order.

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
    _search(n - 1, scale * budget, [0] * n, m, minors, weights, out, cap)
    return out


def _search(level, rest, x, m, minors, weights, out, cap) -> None:
    """DFS over x[level], then the coordinates below it; `rest` is the scaled budget left.

    While every coordinate above `level` is zero the current one starts at 0,
    so exactly one vector of each pair {x, -x} is visited.  A module-level
    function rather than a closure, so no reference cycle keeps `out` alive.
    """
    pivot = minors[level + 1]
    row = m[level]
    center = 0
    for j in range(level + 1, len(x)):
        center += row[j] * x[j]
    radius = isqrt(rest // weights[level])
    lo = -((radius + center) // pivot)  # smallest x with pivot*x + center >= -radius
    hi = (radius - center) // pivot
    if not any(x[level + 1 :]):
        lo = max(lo, 1 if level == 0 else 0)  # level 0 also skips the zero vector
    if level == 0:
        if lo <= hi:
            tail = tuple(x[1:])
            out.extend((v, *tail) for v in range(lo, hi + 1))
            if len(out) > cap:
                raise BoundTooLarge(f"enumeration exceeded cap of {cap} vectors")
        return
    w = weights[level]
    for v in range(lo, hi + 1):
        t = pivot * v + center
        x[level] = v
        _search(level - 1, rest - w * t * t, x, m, minors, weights, out, cap)
    x[level] = 0
