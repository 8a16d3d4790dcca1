"""Exact enumeration of short vectors of a positive definite integer Gram matrix.

Branch-and-bound in the Fincke-Pohst style over an exact rational Cholesky
decomposition.  Floating point is used only to seed interval endpoints; every
endpoint is widened and then confirmed by exact rational evaluation, so the
output is exact.  One vector per +-pair is returned: the highest-index
nonzero coordinate is positive.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BoundTooLarge

DEFAULT_CAP = 5_000_000


def cholesky_rational(gram: list[list[int]]) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Exact decomposition gram = U^T D U with U unit upper triangular.

    Raises ValueError when the form is not positive definite.
    """
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    u = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(n):
        d[k] = a[k][k]
        if d[k] <= 0:
            raise ValueError("gram matrix is not positive definite")
        for j in range(k + 1, n):
            u[k][j] = a[k][j] / d[k]
        for i in range(k + 1, n):
            for j in range(i, n):
                a[i][j] -= d[k] * u[k][i] * u[k][j]
                a[j][i] = a[i][j]
    return d, u


def _interval(center: Fraction, radius_sq: Fraction) -> tuple[int, int]:
    """Integers x with (x - center)^2 <= radius_sq, via float seed + exact fix-up."""
    if radius_sq < 0:
        return (1, 0)
    r = math.sqrt(float(radius_sq)) if radius_sq > 0 else 0.0
    c = float(center)
    lo = math.floor(c - r) - 1  # widened by one, then confirmed exactly
    hi = math.ceil(c + r) + 1
    while (lo - center) * (lo - center) > radius_sq:
        lo += 1
        if lo > hi:
            return (1, 0)
    while (lo - 1 - center) * (lo - 1 - center) <= radius_sq:
        lo -= 1
    while (hi - center) * (hi - center) > radius_sq:
        hi -= 1
        if hi < lo:
            return (1, 0)
    while (hi + 1 - center) * (hi + 1 - center) <= radius_sq:
        hi += 1
    return (lo, hi)


def _enumerate(d, u, budget: Fraction, level: int, partial, centers, out, cap: int):
    """DFS from coordinate `level` down to 0; `partial` maps level -> chosen x.

    While every coordinate above `level` is zero the current one starts at 0,
    so exactly one vector of each pair {x, -x} is visited.
    """
    center = -centers[level]
    lo, hi = _interval(center, budget / d[level])
    if not any(partial[level + 1:]):
        lo = max(lo, 0)
    for x in range(lo, hi + 1):
        diff = x - center
        used = d[level] * diff * diff
        if used > budget:
            continue
        partial[level] = x
        if level == 0:
            vec = tuple(partial)
            if any(vec):
                out.append(vec)
                if len(out) > cap:
                    raise BoundTooLarge(f"enumeration exceeded cap of {cap} vectors")
        else:
            new_centers = list(centers)
            for j in range(level):
                new_centers[j] += u[j][level] * x
            _enumerate(d, u, budget - used, level - 1, partial, new_centers, out, cap)
        partial[level] = 0


def short_vectors(gram: list[list[int]], budget: int, cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """All x != 0 with x^T G x <= budget, one representative per {x, -x}, in a fixed order."""
    n = len(gram)
    d, u = cholesky_rational(gram)
    out: list[tuple[int, ...]] = []
    _enumerate(d, u, Fraction(budget), n - 1, [0] * n, [Fraction(0)] * n, out, cap)
    return out
