"""Independent oracles used by the test suite.

Everything here recomputes expected values through a different algorithm
from the production code path: naive box scans instead of branch-and-bound,
full residue-ring searches instead of valuation case analysis, direct
power-series products and sympy's factorization and root isolation for
eigenvalue data, and quaternions with coordinates
in L multiplied by the product formula instead of integer rows multiplied
through structure constants.  Nothing here imports quatheta.lattices or
quatheta.quadmod; lattices and modules are read through their `algebra`,
`rows`, `den`, `lattice` and `normalizer` attributes only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from quatheta.fields import AlgebraicInteger


# ---------------------------------------------------------------------------
# Reference arithmetic: elements of L and quaternions with coordinates in L


class FieldElement:
    """An element of L in lowest terms: AlgebraicInteger numerator over a positive integer."""

    __slots__ = ("field", "num", "den")

    def __init__(self, fld, num: AlgebraicInteger, den: int):
        # Internal: assumes already reduced with den > 0; use make() otherwise.
        self.field = fld
        self.num = num
        self.den = den

    @staticmethod
    def make(num: AlgebraicInteger, den: int) -> FieldElement:
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(gcd(abs(num.a), abs(num.b)), den)
        if g > 1:
            num = AlgebraicInteger(num.field, num.a // g, num.b // g)
            den //= g
        return FieldElement(num.field, num, den)

    def _coerce(self, other) -> FieldElement:
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, AlgebraicInteger):
            return fe_of(other)
        if isinstance(other, int):
            return fe(self.field, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement.make(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement.make(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> FieldElement:
        return FieldElement(self.field, -self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement.make(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero field element")
        nn = o.num * o.num.conjugate()  # rational integer equal to num * conj(num)
        return FieldElement.make(self.num * o.num.conjugate() * o.den, self.den * nn.a)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, AlgebraicInteger)):
            return self.den == 1 and self.num == other
        return (
            isinstance(other, FieldElement)
            and self.field is other.field
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.field.d, self.num.a, self.num.b, self.den))

    def __repr__(self) -> str:
        if self.den == 1:
            return repr(self.num)
        return f"{self.num!r}/{self.den}"

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_integral(self) -> bool:
        return self.den == 1

    def to_integer(self) -> AlgebraicInteger:
        if self.den != 1:
            raise ValueError(f"{self!r} is not integral")
        return self.num

    def conjugate(self) -> FieldElement:
        return FieldElement(self.field, self.num.conjugate(), self.den)

    def norm(self) -> Fraction:
        return Fraction(self.num.norm(), self.den * self.den)

    def is_totally_positive(self) -> bool:
        return self.num.is_totally_positive()

    def coords(self) -> tuple[Fraction, Fraction]:
        return (Fraction(self.num.a, self.den), Fraction(self.num.b, self.den))


def fe(fld, a: int, b: int = 0, den: int = 1) -> FieldElement:
    """(a + b*omega) / den as a FieldElement."""
    return FieldElement.make(fld.integer(a, b), den)


def fe_of(x: AlgebraicInteger) -> FieldElement:
    return FieldElement(x.field, x, 1)


class QuaternionElement:
    """Coordinates (t, x, y, z) in L with respect to the basis (1, i, j, k)."""

    __slots__ = ("algebra", "t", "x", "y", "z")

    def __init__(self, alg, t: FieldElement, x: FieldElement, y: FieldElement, z: FieldElement):
        self.algebra = alg
        self.t, self.x, self.y, self.z = t, x, y, z

    def coords(self) -> tuple[FieldElement, FieldElement, FieldElement, FieldElement]:
        return (self.t, self.x, self.y, self.z)

    def __add__(self, o: QuaternionElement) -> QuaternionElement:
        return QuaternionElement(self.algebra, self.t + o.t, self.x + o.x, self.y + o.y, self.z + o.z)

    def __sub__(self, o: QuaternionElement) -> QuaternionElement:
        return QuaternionElement(self.algebra, self.t - o.t, self.x - o.x, self.y - o.y, self.z - o.z)

    def __mul__(self, o):
        if isinstance(o, QuaternionElement):
            a = fe_of(self.algebra.a)
            b = fe_of(self.algebra.b)
            t1, x1, y1, z1 = self.coords()
            t2, x2, y2, z2 = o.coords()
            return QuaternionElement(
                self.algebra,
                t1 * t2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
                t1 * x2 + x1 * t2 - b * y1 * z2 + b * z1 * y2,
                t1 * y2 + y1 * t2 + a * x1 * z2 - a * z1 * x2,
                t1 * z2 + z1 * t2 + x1 * y2 - y1 * x2,
            )
        return self.scale(o)

    def scale(self, c) -> QuaternionElement:
        return QuaternionElement(self.algebra, self.t * c, self.x * c, self.y * c, self.z * c)

    def __eq__(self, o) -> bool:
        return isinstance(o, QuaternionElement) and self.algebra == o.algebra and self.coords() == o.coords()

    def __hash__(self):
        return hash((self.t, self.x, self.y, self.z))

    def __repr__(self) -> str:
        return f"[{self.t!r}, {self.x!r}, {self.y!r}, {self.z!r}]"

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords())

    def conjugate(self) -> QuaternionElement:
        return QuaternionElement(self.algebra, self.t, -self.x, -self.y, -self.z)

    def reduced_trace(self) -> FieldElement:
        return self.t + self.t

    def reduced_norm(self) -> FieldElement:
        a = fe_of(self.algebra.a)
        b = fe_of(self.algebra.b)
        t, x, y, z = self.coords()
        return t * t - a * x * x - b * y * y + a * b * z * z


def quaternion(alg, t, x, y, z) -> QuaternionElement:
    """The quaternion t + x i + y j + z k for coordinates given as ints, AlgebraicIntegers or FieldElements."""
    fld = alg.field

    def coerce(c):
        if isinstance(c, FieldElement):
            return c
        return fe_of(c) if isinstance(c, AlgebraicInteger) else fe(fld, c)

    return QuaternionElement(alg, *(coerce(c) for c in (t, x, y, z)))


def lattice_basis(lat) -> list[QuaternionElement]:
    """The basis of a lattice, its integer rows over its denominator, as quaternions."""
    fld = lat.algebra.field
    g = fld.degree
    return [
        quaternion(lat.algebra, *(FieldElement.make(fld.integer(*r[c : c + g]), lat.den) for c in range(0, 4 * g, g)))
        for r in lat.rows
    ]


def z_basis(lat) -> list[QuaternionElement]:
    """The Z-basis (b_m, omega*b_m) of a lattice, in the order of its Z-coordinates."""
    fld = lat.algebra.field
    out = []
    for b in lattice_basis(lat):
        out.append(b)
        if fld.degree == 2:
            out.append(b.scale(fe_of(fld.omega)))
    return out


def integer_rows(g: int, elems) -> tuple[list[list[int]], int]:
    """Integer rows of length 4g of the quaternions over their least common denominator."""
    den = lcm(1, *(c.den for q in elems for c in q.coords()))
    rows = []
    for q in elems:
        row = []
        for c in q.coords():
            s = den // c.den
            row += (c.num.a * s, c.num.b * s)[:g]
        rows.append(row)
    return rows, den


def module_element(mod, vec) -> QuaternionElement:
    """The element of a degree module with Z-coordinates `vec`."""
    out = quaternion(mod.lattice.algebra, 0, 0, 0, 0)
    for c, b in zip(vec, z_basis(mod.lattice)):
        if c:
            out = out + b.scale(c)
    return out


def module_value(mod, x: QuaternionElement) -> AlgebraicInteger:
    """Q(x) = Nrd(x) / n for an element of a degree module of normalizer n."""
    return (x.reduced_norm() / fe_of(mod.normalizer)).to_integer()


def structure_constants(alg):
    """(mul, trd) on the Z-basis e_{g*c+k} = omega^k * (1, i, j, k)[c], from quaternion products.

    mul[p] lists (q, m, c) with e_p e_q = sum c e_m, and trd[p] lists
    (q, k, c) with Trd(e_p conj(e_q)) = sum c omega^k, zero terms left out.
    """
    fld = alg.field
    g = fld.degree
    powers = [fe(fld, 1)] + ([fe(fld, 0, 1)] if g == 2 else [])
    units = [quaternion(alg, *(int(c == m) for c in range(4))) for m in range(4)]
    basis = [u.scale(w) for u in units for w in powers]

    def ints(c: FieldElement) -> tuple[int, ...]:
        return c.to_integer().coords()[:g]

    mul = tuple(
        tuple(
            (q, m, c)
            for q, eq in enumerate(basis)
            for m, c in enumerate(v for co in (ep * eq).coords() for v in ints(co))
            if c
        )
        for ep in basis
    )
    trd = tuple(
        tuple(
            (q, k, c)
            for q, eq in enumerate(basis)
            for k, c in enumerate(ints((ep * eq.conjugate()).reduced_trace()))
            if c
        )
        for ep in basis
    )
    return mul, trd


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


def cuspidal_eigenvalues_sympy(charpoly: list[int], norm: int) -> list[tuple]:
    """(minpoly, exact, interval) for each cuspidal eigenvalue of a Brandt
    matrix B(q) with N(q) = norm, through sympy's `factor_list` and
    `Poly.intervals`, sorted stably by lower bound."""
    import sympy

    x = sympy.Symbol("x")
    quo = [charpoly[0]]  # synthetic division by x - (norm + 1)
    for c in charpoly[1:]:
        quo.append(c + (norm + 1) * quo[-1])
    assert quo.pop() == 0
    out = []
    for factor, mult in sympy.factor_list(sympy.Poly(quo, x))[1]:
        fpoly = sympy.Poly(factor, x)
        minpoly = tuple(int(c) for c in fpoly.all_coeffs())
        if fpoly.degree() == 1:
            out += [(minpoly, Fraction(-minpoly[1], minpoly[0]), None)] * mult
        else:
            for (lo, hi), _ in fpoly.intervals():
                out += [(minpoly, None, (Fraction(int(lo.p), int(lo.q)), Fraction(int(hi.p), int(hi.q))))] * mult
    out.sort(key=lambda e: e[1] if e[2] is None else e[2][0])
    return out


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
    zb = z_basis(mod.lattice)
    n = len(zb)
    ne = fe_of(mod.normalizer)
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
    """(det, level) of an integral Gram over O_L through its inverse over L.

    The level is the lcm of the denominators of the entries of gram^{-1},
    with the diagonal halved: the smallest N with N * gram^{-1} integral and
    of even diagonal.
    """
    from quatheta.fields import canonical_positive_associate, field_gcd

    zero, one = fe(fld, 0), fe(fld, 1)
    rows = [[fe_of(e) for e in r] for r in gram]
    det = det_generic(rows, zero).to_integer()
    inv = inverse_generic(rows, zero, one)
    level = fld.one
    for r in range(4):
        for s in range(4):
            e = inv[r][s] if r != s else inv[r][s] / fe(fld, 2)
            den = fld.integer(e.den)
            need = (fe_of(den) / fe_of(field_gcd(e.num, den))).to_integer()
            level = (fe_of(level * need) / fe_of(field_gcd(level, need))).to_integer()
    return det, canonical_positive_associate(level)


def _quotient(x, y):
    """x / y when y divides x in O_L, else None: x conj(y) over the rational integer y conj(y)."""
    num, n = x * y.conjugate(), (y * y.conjugate()).a
    if num.a % n or num.b % n:
        return None
    return x.field.integer(num.a // n, num.b // n)


def hilbert_symbol_ring_scan(fld, a, b, prime, k: int) -> int:
    """Primitive solvability of z^2 = a x^2 + b y^2 over O_L / q^k by full search.

    Independent of the production case analysis and of its residue rings:
    O_L / q^k is represented by the box of the 2x2 integer HNF of the ideal
    (gen^k), with AlgebraicInteger products reduced into it.  Only usable
    when the residue ring is small.
    """
    m = prime.generator ** k
    if fld.degree == 1:
        h00, h01, h11 = abs(m.a), 0, 1
    else:  # Z-basis m, m*omega of (m); HNF from the gcd of its first column
        mw = m * fld.omega
        g, s, t = _xgcd(m.a, mw.a)
        h00 = g
        h11 = abs(m.a * mw.b - mw.a * m.b) // g
        h01 = (s * m.b + t * mw.b) % h11

    def reduce(u: int, v: int) -> tuple[int, int]:
        """The representative of u + v*omega in the HNF box."""
        q = u // h00
        return (u - q * h00, (v - q * h01) % h11)

    def unit(x) -> bool:
        return _quotient(x, prime.generator) is None

    elems = [fld.integer(u, v) for u in range(h00) for v in range(h11)]
    squares_all = {reduce(*(z * z).coords()) for z in elems}
    squares_unit = {reduce(*(z * z).coords()) for z in elems if unit(z)}
    ax2 = {(reduce(*(a * x * x).coords()), unit(x)) for x in elems}
    by2 = {(reduce(*(b * y * y).coords()), unit(y)) for y in elems}
    for (u0, u1), x_unit in ax2:
        for (v0, v1), y_unit in by2:
            if reduce(u0 + v0, u1 + v1) in (squares_all if x_unit or y_unit else squares_unit):
                return 1
    return -1


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and s a + t b = g."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


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
            v, x = 0, nu
            while (x := _quotient(x, P.generator)) is not None:
                v += 1
            if v:
                out *= sum(P.norm ** t for t in range(v + 1))
    return out
