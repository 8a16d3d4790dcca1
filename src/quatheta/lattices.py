"""Full rank-4 O_L-lattices in a quaternion algebra.

A lattice is stored as a canonical Hermite-normal-form basis over O_L
(possible because every allowlisted field is norm-Euclidean with trivial
class group) together with a global integer denominator.  Canonical form
makes equality, hashing and serialization trivial.

Arithmetic runs on integer rows.  An element of O_L^4 is a row of 4g
integers, the coordinates (a, b) of a + b*omega for t, x, y, z in turn (b
left out over Q); products and the Gram of a basis come from the algebra's
structure constants on that Z-basis.  Every HNF is the integer HNF of the
rank-4g Z-structure; over Q(sqrt d) `hnf_ol` reads the O_L-HNF off it, one
O_L row from each pair of integer rows.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .fields import AlgebraicInteger, _ideal_generator, exact_div
from .linalg import hnf_int, kernel_int
from .quaternions import QuaternionAlgebra


def hnf_ol(fld, zrows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form over O_L, for L = Q(sqrt d), read off the integer HNF.

    `zrows` span the Z-structure of an O_L-module, the (a, b) of each O_L
    column side by side.  Its integer HNF comes in pairs of rows (r0, r1)
    with pivots at the (a, b) of one O_L column c, and the block
    [[alpha, beta], [0, delta]] is the Z-basis of the column ideal I_c
    (Cohen, GTM 193, §1.4).  Each pair gives one O_L row m*r0 + n*r1 whose
    pivot is the canonical totally positive generator of I_c, and each entry
    above it is reduced by the pair into the box [0, alpha) x [0, delta).
    Returns these integer rows, zero rows dropped; canonical, hence idempotent.
    """
    h = hnf_int(zrows)
    out = []
    for r0, r1 in zip(h[::2], h[1::2]):
        c = next(i for i, x in enumerate(r0) if x)
        alpha, beta, delta = r0[c], r0[c + 1], r1[c + 1]
        g = _ideal_generator(fld, [r0[c : c + 2], r1[c : c + 2]])
        m = g.a // alpha
        n = (g.b - m * beta) // delta
        for i, row in enumerate(out):
            q0 = row[c] // alpha
            q1 = (row[c + 1] - q0 * beta) // delta
            if q0 or q1:
                out[i] = [x - q0 * y - q1 * z for x, y, z in zip(row, r0, r1)]
        out.append([m * y + n * z for y, z in zip(r0, r1)])
    return out


# ---------------------------------------------------------------------------
# Integer rows


@lru_cache(maxsize=None)
def _structure(algebra: QuaternionAlgebra):
    """Sparse structure constants on the Z-basis e_{g*c+k} = omega^k * (1, i, j, k)[c].

    Returns (mul, trd): mul[p] lists (q, m, c) with e_p e_q = sum c e_m, and
    trd[p] lists (q, k, c) with Trd(e_p conj(e_q)) = sum c omega^k.  Read off
    i^2 = a, j^2 = b, ij = -ji = k (so k^2 = -ab, ik = -ki = aj, kj = -jk = bi)
    with omega central, omega^2 = t omega - n, and Trd(u conj(u')) = 0 for
    distinct units u, u' of (1, i, j, k) but 2 Nrd(u) for u = u'.
    """
    fld = algebra.field
    g = fld.degree
    a, b, one = algebra.a, algebra.b, fld.one
    # units[c][d] = (e, s) with u_c u_d = s u_e
    units = (
        ((0, one), (1, one), (2, one), (3, one)),
        ((1, one), (0, a), (3, one), (2, a)),
        ((2, one), (3, -one), (0, b), (1, -b)),
        ((3, one), (2, -a), (1, b), (0, -a * b)),
    )
    nrd = (one, -a, -b, a * b)
    powers = (one,) if g == 1 else (one, fld.omega, fld.omega * fld.omega)

    def ints(x) -> tuple[int, ...]:
        return x.coords()[:g]

    mul = tuple(
        tuple(
            (g * d + k2, g * units[c][d][0] + m, v)
            for d in range(4)
            for k2 in range(g)
            for m, v in enumerate(ints(units[c][d][1] * powers[k1 + k2]))
            if v
        )
        for c in range(4)
        for k1 in range(g)
    )
    trd = tuple(
        tuple(
            (g * c + k2, k, v)
            for k2 in range(g)
            for k, v in enumerate(ints(2 * nrd[c] * powers[k1 + k2]))
            if v
        )
        for c in range(4)
        for k1 in range(g)
    )
    return mul, trd


def _bilinear(terms, x, y, size: int) -> list[int]:
    """sum over p, q of x_p y_q (e_p * e_q) for a sparse tensor from `_structure`."""
    out = [0] * size
    for xp, row in zip(x, terms):
        if xp:
            for q, m, c in row:
                yq = y[q]
                if yq:
                    out[m] += c * xp * yq
    return out


def _scale_row(fld, row, k: AlgebraicInteger) -> list[int]:
    """The integer row of k * x, for k in O_L and x the element with integer row `row`."""
    if fld.degree == 1:
        return [k.a * c for c in row]
    t, n = fld.omega_trace, fld.omega_norm
    out = []
    for a, b in zip(row[::2], row[1::2]):  # (a + b omega)(k.a + k.b omega), omega^2 = t omega - n
        out += (a * k.a - n * b * k.b, a * k.b + b * k.a + t * b * k.b)
    return out


def _conjugate_row(g: int, row) -> tuple[int, ...]:
    """The integer row of conj(x): the i, j and k columns negated."""
    return tuple(row[:g]) + tuple(-c for c in row[g:])


def _z_structure(fld, rows) -> list[list[int]]:
    """Z-generators of the O_L-span of integer rows: each row, then omega times it."""
    if fld.degree == 1:
        return [list(r) for r in rows]
    out = []
    for r in rows:
        out += (list(r), _scale_row(fld, r, fld.omega))
    return out


class QuaternionLattice:
    """A full O_L-lattice in B, canonical basis rows over a common denominator."""

    __slots__ = ("algebra", "rows", "den", "_zrows", "_gram")

    def __init__(self, algebra: QuaternionAlgebra, rows, den: int):
        self.algebra = algebra
        self.rows = rows  # 4 integer rows of length 4g (canonical HNF)
        self.den = den
        self._zrows = None
        self._gram = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_generators(algebra: QuaternionAlgebra, rows, den: int) -> QuaternionLattice:
        """The lattice spanned over O_L by the elements row/den, for integer rows of length 4g."""
        return QuaternionLattice._from_z_rows(algebra, _z_structure(algebra.field, rows), den)

    @staticmethod
    def _from_z_rows(algebra, zrows, den) -> QuaternionLattice:
        """The lattice whose Z-structure is spanned by the integer rows over den."""
        fld = algebra.field
        rows = hnf_int(zrows) if fld.degree == 1 else hnf_ol(fld, zrows)
        if len(rows) != 4:
            raise ValueError(f"generators span rank {len(rows)} < 4")
        return QuaternionLattice._normalized(algebra, rows, den)

    @staticmethod
    def _normalized(algebra, rows, den) -> QuaternionLattice:
        g = gcd(den, *(e for r in rows for e in r))
        if g > 1:
            rows = [[e // g for e in r] for r in rows]
            den //= g
        return QuaternionLattice(algebra, tuple(tuple(r) for r in rows), den)

    # -- basic views ---------------------------------------------------------

    @property
    def mat(self) -> tuple[tuple[AlgebraicInteger, ...], ...]:
        """The basis rows as 4 AlgebraicIntegers each."""
        fld = self.algebra.field
        g = fld.degree
        return tuple(tuple(fld.integer(*r[c : c + g]) for c in range(0, len(r), g)) for r in self.rows)

    def z_rows(self) -> list[list[int]]:
        """Integer rows of the rank-4g Z-structure, interleaved (b_m, omega*b_m)."""
        if self._zrows is None:
            self._zrows = _z_structure(self.algebra.field, self.rows)
        return self._zrows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuaternionLattice)
            and self.algebra == other.algebra
            and self.den == other.den
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.den, self.rows))

    def __repr__(self) -> str:
        return f"Lattice(den={self.den}, rows={self.mat})"

    # -- membership ----------------------------------------------------------

    def coordinates(self, row, den: int) -> list[AlgebraicInteger]:
        """Coordinates of the element row/den by back-substitution in the O_L-triangular rows.

        Every step is an exact division in O_L; raises ValueError when one
        fails, that is unless the element is in the lattice.
        """
        fld = self.algebra.field
        g = fld.degree
        w = []
        for c in row:
            v, r = divmod(c * self.den, den)
            if r:
                raise ValueError("element is not in the lattice: coordinates are not integral")
            w.append(v)
        out = []
        for i, h in enumerate(self.rows):  # h is zero before its pivot, O_L column i
            if g == 1:
                q, r = divmod(w[i], h[i])
                if r:
                    raise ValueError("element is not in the lattice: coordinates are not integral")
                if q:
                    w = [a - q * b for a, b in zip(w, h)]
                out.append(fld.integer(q))
                continue
            k = exact_div(fld.integer(w[2 * i], w[2 * i + 1]), fld.integer(h[2 * i], h[2 * i + 1]))
            out.append(k)
            if not k.is_zero():
                w = [a - b for a, b in zip(w, _scale_row(fld, h, k))]
        return out

    def combine(self, coeffs) -> list[int]:
        """The integer row, over den, of sum c_m b_m for c_m in O_L; the inverse of `coordinates`."""
        fld = self.algebra.field
        out = [0] * (4 * fld.degree)
        for c, r in zip(coeffs, self.rows):
            if not c.is_zero():
                out = [a + b for a, b in zip(out, _scale_row(fld, r, c))]
        return out

    # -- arithmetic ----------------------------------------------------------

    def multiply(self, other: QuaternionLattice) -> QuaternionLattice:
        """The lattice spanned by the 16 products of basis rows."""
        return QuaternionLattice.from_generators(self.algebra, self._products(self.rows, other.rows), self.den * other.den)

    def conjugate_multiply(self, other: QuaternionLattice, divisor: AlgebraicInteger | None = None) -> QuaternionLattice:
        """conj(L) * M, or conj(L) * M / divisor for a nonzero divisor in O_L,
        from the conjugated basis rows of L without forming conj(L)'s HNF.

        Dividing by n is multiplying by sigma(n) / N(n), sigma the Galois
        conjugate (1 over Q), so the product still takes one HNF.
        """
        fld = self.algebra.field
        rows = [_conjugate_row(fld.degree, r) for r in self.rows]
        den = self.den * other.den
        if divisor is not None:
            if fld.degree == 2:
                rows = [_scale_row(fld, r, divisor.conjugate()) for r in rows]
            den *= divisor.norm() if fld.degree == 2 else divisor.a
        return QuaternionLattice.from_generators(self.algebra, self._products(rows, other.rows), den)

    def multiply_elements(self, k: AlgebraicInteger, rows, den: int) -> QuaternionLattice:
        """k*L + L*x_1 + ... + L*x_m for k in O_L and the elements x_r = rows[r]/den.

        When O is the right order of L this is L * (k*O + O_L x_1 + ...), the
        product of L with a lattice between kO and O, from 4 + 4m generators.
        """
        fld = self.algebra.field
        gens = [_scale_row(fld, r, k * den) for r in self.rows] + self._products(self.rows, rows)
        return QuaternionLattice.from_generators(self.algebra, gens, self.den * den)

    def _products(self, rows, others) -> list[list[int]]:
        """The integer rows of x * y for x in `rows` and y in `others`."""
        mul = _structure(self.algebra)[0]
        size = 4 * self.algebra.field.degree
        return [_bilinear(mul, r, s, size) for r in rows for s in others]

    def product_coordinates(self, other: QuaternionLattice | None = None) -> list[list[tuple[AlgebraicInteger, ...]]]:
        """Coordinates in this basis of b_m * c_n, for b this basis and c the basis
        of other (default: this lattice); raises ValueError unless L*M <= L."""
        other = self if other is None else other
        den = self.den * other.den
        prods = self._products(self.rows, other.rows)
        return [[tuple(self.coordinates(prods[4 * m + n], den)) for n in range(4)] for m in range(4)]

    def conjugate(self) -> QuaternionLattice:
        """conj(L): the basis rows with their i, j and k columns negated."""
        g = self.algebra.field.degree
        return QuaternionLattice.from_generators(self.algebra, [_conjugate_row(g, r) for r in self.rows], self.den)

    def intersect(self, other: QuaternionLattice) -> QuaternionLattice:
        d = lcm(self.den, other.den)
        m1 = [[c * (d // self.den) for c in r] for r in self.z_rows()]
        m2 = [[c * (d // other.den) for c in r] for r in other.z_rows()]
        stacked = m1 + [[-c for c in r] for r in m2]
        ker = kernel_int(stacked)
        n = len(m1)
        rows = []
        for kv in ker:
            u = kv[:n]
            rows.append([sum(u[i] * m1[i][j] for i in range(n)) for j in range(len(m1[0]))])
        return QuaternionLattice._from_z_rows(self.algebra, rows, d)

    # -- invariants ----------------------------------------------------------

    def trd_gram(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """den^2 * Trd(b_r conj(b_s)) for the basis b_r, each entry the g coordinates of an O_L element.

        For b = (t, x, y, z) and b' = (t', x', y', z'), Trd(b conj(b')) =
        2(t t' - a x x' - b y y' + ab z z'), so every entry is even.
        """
        if self._gram is None:  # symmetric: the upper triangle, mirrored
            trd = _structure(self.algebra)[1]
            g = self.algebra.field.degree
            rows = self.rows
            gram = [[None] * 4 for _ in range(4)]
            for r in range(4):
                for s in range(r, 4):
                    gram[r][s] = gram[s][r] = tuple(_bilinear(trd, rows[r], rows[s], g))
            self._gram = tuple(map(tuple, gram))
        return self._gram

    def discriminant(self) -> AlgebraicInteger:
        """4ab (product of the pivots) / den^4; raises ValueError unless it is in O_L.

        The basis is triangular over (1, i, j, k), whose Trd(x * y) pairing
        is diag(2, 2a, 2b, -2ab), so the pairing determinant of the basis is
        -16 a^2 b^2 (product of the pivots)^2 / den^8, minus the square of
        this value.  For an order it generates the reduced discriminant.
        """
        m = self.mat
        x = 4 * self.algebra.a * self.algebra.b * m[0][0] * m[1][1] * m[2][2] * m[3][3]
        q = self.den ** 4
        if x.a % q or x.b % q:
            raise ValueError("discriminant is not integral")
        return self.algebra.field.integer(x.a // q, x.b // q)

    def multiplier_lattice(self, side: str) -> QuaternionLattice:
        """{x : x*L <= L} for side='left', {x : L*x <= L} for side='right'.

        It is the intersection over the basis b of L*b^-1 (left) or b^-1*L
        (right).  For b = r/den with n = Nrd(r) = trd_gram()[b][b]/2,
        b^-1 = conj(r) den sigma(n)/N(n) (sigma the Galois conjugate, 1 over
        Q), so each piece is spanned by integer products with conj(r) sigma(n)
        over the denominator N(n).
        """
        fld = self.algebra.field
        g = fld.degree
        mul = _structure(self.algebra)[0]
        size = 4 * g
        gram = self.trd_gram()
        out = None
        for b, r in enumerate(self.rows):
            n = fld.integer(*(c // 2 for c in gram[b][b]))
            inv = _conjugate_row(g, r)
            if g == 2:
                inv = _scale_row(fld, inv, n.conjugate())
            prods = [
                _bilinear(mul, t, inv, size) if side == "left" else _bilinear(mul, inv, t, size)
                for t in self.rows
            ]
            piece = QuaternionLattice.from_generators(self.algebra, prods, n.norm())
            out = piece if out is None else out.intersect(piece)
        return out
