"""Independent oracles used by the test suite.

Everything here recomputes expected values through a different algorithm
from the production code path: naive box scans instead of branch-and-bound,
full residue-ring searches instead of valuation case analysis, direct
power-series products for eigenvalue data.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def eta_product_coefficients(p: int, nmax: int) -> list[int]:
    """Coefficients of q * prod_{n>=1} (1-q^n)^2 (1-q^(pn))^2 up to q^nmax."""
    poly = [0] * (nmax + 1)
    poly[0] = 1

    def times_one_minus_qk(poly, k):
        new = list(poly)
        for idx in range(nmax, -1, -1):
            if idx + k <= nmax and poly[idx]:
                new[idx + k] -= poly[idx]
        return new

    for n in range(1, nmax + 1):
        for _ in range(2):
            poly = times_one_minus_qk(poly, n)
        if p * n <= nmax:
            for _ in range(2):
                poly = times_one_minus_qk(poly, p * n)
    return [0] + poly[:nmax]


def tp_box_scan(fld, bound: int):
    """Totally positive elements of trace <= bound by scanning the raw
    coordinate box |trace| <= bound, |norm| <= bound^2."""
    out = [fld.zero]
    if fld.degree == 1:
        out += [fld.integer(n) for n in range(1, bound + 1)]
        return out
    found = []
    lim = 2 * bound + 2
    for a in range(-lim, lim + 1):
        for b in range(-lim, lim + 1):
            x = fld.integer(a, b)
            if abs(x.trace()) > bound or abs(x.norm()) > bound * bound:
                continue
            if x.trace() > 0 and x.norm() > 0 and x.trace() <= bound:
                found.append(x)
    found.sort(key=lambda x: (x.trace(), x.a, x.b))
    return out + found


def theta_box_scan(mod, bound: int) -> dict[tuple[int, int], int]:
    """Representation numbers by a naive integer box scan over Z-coordinates.

    Rebuilds the two integer quadratic forms giving the coordinates of
    2*Q(x) directly from quaternion arithmetic, bounds each coordinate from
    the rational inverse of the trace form, and scans the full box with
    vectorized integer arithmetic.
    """
    fld = mod.field
    zb = mod.lattice.z_basis()
    n = len(zb)
    ne = mod.normalizer.to_element()
    ga = [[0] * n for _ in range(n)]
    gb = [[0] * n for _ in range(n)]
    tr = [[0] * n for _ in range(n)]
    for r in range(n):
        for s in range(n):
            v = ((zb[r] * zb[s].conjugate()).reduced_trace() / ne).to_integer()
            ga[r][s] = v.a
            gb[r][s] = v.b
            tr[r][s] = v.trace()
    inv = inverse_generic([[Fraction(x) for x in row] for row in tr], Fraction(0), Fraction(1))
    radii = []
    for i in range(n):
        bound_sq = 2 * bound * inv[i][i]
        r = int(float(bound_sq) ** 0.5) + 1
        while Fraction(r * r) > bound_sq:
            r -= 1
        while Fraction((r + 1) * (r + 1)) <= bound_sq:
            r += 1
        radii.append(max(r, 0))
    axes = [np.arange(-r, r + 1, dtype=np.int64) for r in radii]
    grid = np.array(list(itertools.product(*axes)), dtype=np.int64)
    A = np.array(ga, dtype=np.int64)
    B = np.array(gb, dtype=np.int64)
    va = np.einsum("ij,jk,ik->i", grid, A, grid)
    vb = np.einsum("ij,jk,ik->i", grid, B, grid)
    counts: dict[tuple[int, int], int] = {}
    t_omega = fld.omega_trace if fld.degree == 2 else 0
    for qa2, qb2 in zip(va.tolist(), vb.tolist()):
        assert qa2 % 2 == 0 and qb2 % 2 == 0
        qa, qb = qa2 // 2, qb2 // 2
        if qa == 0 and qb == 0:
            continue
        trace = 2 * qa + t_omega * qb if fld.degree == 2 else qa
        if trace > bound:
            continue
        counts[(qa, qb)] = counts.get((qa, qb), 0) + 1
    return counts


def det_generic(rows, zero):
    """Determinant by cofactor expansion along the first row, over any exact ring."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = zero
    for j in range(n):
        a = rows[0][j]
        if a == zero:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = a * det_generic(minor, zero)
        out = out - term if j % 2 else out + term
    return out


def inverse_generic(rows, zero, one):
    """Inverse of a square matrix over any exact field type, by Gauss-Jordan elimination."""
    n = len(rows)
    m = [list(r) + [one if j == i else zero for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        sel = next((i for i in range(col, n) if m[i][col] != zero), None)
        if sel is None:
            raise ZeroDivisionError("singular matrix")
        m[col], m[sel] = m[sel], m[col]
        pv = m[col][col]
        m[col] = [a / pv for a in m[col]]
        for i in range(n):
            if i != col and m[i][col] != zero:
                c = m[i][col]
                m[i] = [a - c * b for a, b in zip(m[i], m[col])]
    return [r[n:] for r in m]


def gram_level_by_inverse(fld, gram):
    """(det, level) of an integral Gram over O_L through its FieldElement inverse.

    The level is the lcm of the denominators of the entries of gram^{-1},
    with the diagonal halved: the smallest N with N * gram^{-1} integral and
    of even diagonal.
    """
    from quatheta.fields import canonical_positive_associate, field_gcd

    zero, one = fld.element(0), fld.element(1)
    rows = [[e.to_element() for e in r] for r in gram]
    det = det_generic(rows, zero).to_integer()
    inv = inverse_generic(rows, zero, one)
    level = fld.one
    for r in range(4):
        for s in range(4):
            e = inv[r][s] if r != s else inv[r][s] / fld.element(2)
            den = fld.integer(e.den)
            need = (den.to_element() / field_gcd(e.num, den).to_element()).to_integer()
            level = ((level * need).to_element() / field_gcd(level, need).to_element()).to_integer()
    return det, canonical_positive_associate(level)


def hilbert_symbol_ring_scan(fld, a, b, prime, k: int) -> int:
    """Primitive solvability of z^2 = a x^2 + b y^2 over O_L / q^k by full search.

    Independent of the production case analysis; only usable when the
    residue ring is small.
    """
    from quatheta.quaternions import _ResidueRing

    ring = _ResidueRing(prime, k)
    elems = list(ring.elements())
    ra, rb = ring.reduce(a), ring.reduce(b)
    squares_all = set()
    squares_unit = set()
    for z in elems:
        s = ring.mul(z, z)
        squares_all.add(s)
        if ring.is_unit(z):
            squares_unit.add(s)
    for x in elems:
        ax2 = ring.mul(ra, ring.mul(x, x))
        xu = ring.is_unit(x)
        for y in elems:
            val = ring.add(ax2, ring.mul(rb, ring.mul(y, y)))
            if xu or ring.is_unit(y):
                if val in squares_all:
                    return 1
            elif val in squares_unit:
                return 1
    return -1


def classical_genus_table() -> dict[int, int]:
    """Genus of the level-p modular curve for the acceptance primes (hand values)."""
    return {2: 0, 3: 0, 5: 0, 7: 0, 11: 1, 13: 0, 17: 1, 19: 1, 23: 2, 37: 2, 67: 5}


def eichler_class_number(p: int) -> int:
    """Class number of a maximal order in the rational definite algebra of
    prime discriminant, from the classical closed formula (p > 3)."""
    assert p > 3

    def legendre(a, q):
        r = pow(a % q, (q - 1) // 2, q)
        return -1 if r == q - 1 else r

    h = Fraction(p - 1, 12)
    h += Fraction(1, 4) * (1 - legendre(-1, p))
    h += Fraction(1, 3) * (1 - legendre(-3, p))
    assert h.denominator == 1
    return int(h)


def odd_divisor_sum(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0 and d % 2 == 1)


def ideal_divisor_norm_sum(fld, nu) -> int:
    """Sum of absolute norms of the ideal divisors of (nu) in O_L.

    Multiplicative over the prime factorization, so it is the product of
    geometric sums over the primes above each rational prime dividing N(nu).
    """
    from quatheta.fields import primes_above

    n = abs(nu.norm())
    out = 1
    f = 2
    seen = set()
    while f * f <= n:
        while n % f == 0:
            seen.add(f)
            n //= f
        f += 1
    if n > 1:
        seen.add(n)
    for ell in sorted(seen):
        for P in primes_above(fld, ell):
            v = P.valuation(nu)
            if v:
                out *= sum(P.norm ** t for t in range(v + 1))
    return out
