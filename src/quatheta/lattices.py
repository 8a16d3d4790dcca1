"""Full rank-4 O_L-lattices in a quaternion algebra.

A lattice is stored as a canonical Hermite-normal-form basis over O_L
(possible because every allowlisted field is norm-Euclidean with trivial
class group) together with a global integer denominator.  Canonical form
makes equality, hashing and serialization trivial.

Arithmetic runs on integer rows.  An element of O_L^4 is a row of 4g
integers, the coordinates (a, b) of a + b*omega for t, x, y, z in turn (b
left out over Q); products and the Gram of a basis come from the algebra's
structure constants on that Z-basis.  Every HNF is the integer HNF of the
rank-4g Z-structure; over Q(sqrt d) `hnf_ol` then turns its 8 rows into 4.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .fields import (
    AlgebraicInteger,
    FieldElement,
    canonical_positive_associate,
    exact_div,
    field_xgcd,
)
from .linalg import hnf_int, kernel_int
from .quaternions import QuaternionAlgebra, QuaternionElement


def _ideal_box(pivot: AlgebraicInteger) -> tuple[tuple[int, int], tuple[int, int]]:
    """Integer HNF basis of the principal ideal (pivot) in coordinates (a, b)."""
    if pivot.field.degree == 1:
        p = abs(pivot.a)
        return ((p, 0), (0, p))
    w = pivot.field.omega * pivot
    rows = hnf_int([[pivot.a, pivot.b], [w.a, w.b]])
    return (tuple(rows[0]), tuple(rows[1]))


def _reduce_mod_pivot(e: AlgebraicInteger, pivot: AlgebraicInteger) -> AlgebraicInteger:
    """Canonical representative of e modulo the ideal (pivot)."""
    r0, r1 = _ideal_box(pivot)
    a, b = e.a, e.b
    q0 = a // r0[0]
    a -= q0 * r0[0]
    b -= q0 * r0[1]
    q1 = b // r1[1]
    b -= q1 * r1[1]
    return e.field.integer(a, b)


def hnf_ol(fld, rows: list[list[AlgebraicInteger]], ncols: int = 4) -> list[list[AlgebraicInteger]]:
    """Row Hermite normal form over O_L.

    Pivots are canonical totally positive generators of the column ideals,
    entries above a pivot are reduced into the pivot's fundamental box, and
    zero rows are dropped.  Idempotent, hence canonical.
    """
    m = [list(r) for r in rows if any(not e.is_zero() for e in r)]
    piv = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(piv, len(m)) if not m[i][col].is_zero()]
            if not nz:
                break
            if len(nz) == 1:
                i = nz[0]
                m[piv], m[i] = m[i], m[piv]
                break
            i, j = nz[0], nz[1]
            a, b = m[i][col], m[j][col]
            g, s, t = field_xgcd(a, b)
            u, v = exact_div(a, g), exact_div(b, g)
            ri = [s * x + t * y for x, y in zip(m[i], m[j])]
            rj = [u * y - v * x for x, y in zip(m[i], m[j])]
            m[i], m[j] = ri, rj
        if piv >= len(m) or m[piv][col].is_zero():
            continue
        p = m[piv][col]
        cp = canonical_positive_associate(p)
        if cp != p:
            u = exact_div(cp, p)
            m[piv] = [u * x for x in m[piv]]
        p = m[piv][col]
        for i in range(piv):
            e = m[i][col]
            if e.is_zero():
                continue
            r = _reduce_mod_pivot(e, p)
            mu = exact_div(e - r, p)
            if not mu.is_zero():
                m[i] = [x - mu * y for x, y in zip(m[i], m[piv])]
        piv += 1
    return m[:piv]


# ---------------------------------------------------------------------------
# Integer rows


@lru_cache(maxsize=None)
def _structure(algebra: QuaternionAlgebra):
    """Sparse structure constants on the Z-basis e_{g*c+k} = omega^k * (1, i, j, k)[c].

    Returns (mul, trd): mul[p] lists (q, m, c) with e_p e_q = sum c e_m, and
    trd[p] lists (q, k, c) with Trd(e_p conj(e_q)) = sum c omega^k.
    """
    fld = algebra.field
    g = fld.degree
    powers = [fld.one.to_element()] + ([fld.omega.to_element()] if g == 2 else [])
    basis = [b.scale(w) for b in algebra.basis() for w in powers]

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


def _integer_rows(g: int, elems: list[QuaternionElement]) -> tuple[list[list[int]], int]:
    """Integer rows of the elements over their least common denominator."""
    den = lcm(1, *(c.den for q in elems for c in q.coords()))
    rows = []
    for q in elems:
        row = []
        for c in q.coords():
            s = den // c.den
            row += (c.num.a * s, c.num.b * s)[:g]
        rows.append(row)
    return rows, den


def _scale_row(fld, row, k: AlgebraicInteger) -> list[int]:
    """The integer row of k * x, for k in O_L and x the element with integer row `row`."""
    if fld.degree == 1:
        return [k.a * c for c in row]
    t, n = fld.omega_trace, fld.omega_norm
    out = []
    for a, b in zip(row[::2], row[1::2]):  # (a + b omega)(k.a + k.b omega), omega^2 = t omega - n
        out += (a * k.a - n * b * k.b, a * k.b + b * k.a + t * b * k.b)
    return out


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

    __slots__ = ("algebra", "rows", "mat", "den", "_zrows", "_gram")

    def __init__(self, algebra: QuaternionAlgebra, rows, den: int):
        fld = algebra.field
        self.algebra = algebra
        self.rows = rows  # 4 integer rows of length 4g (canonical HNF)
        self.mat = tuple(  # the same rows as 4 AlgebraicInteger each
            tuple(fld.integer(*r[c : c + fld.degree]) for c in range(0, len(r), fld.degree))
            for r in rows
        )
        self.den = den
        self._zrows = None
        self._gram = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_generators(algebra: QuaternionAlgebra, gens: list[QuaternionElement]) -> QuaternionLattice:
        rows, den = _integer_rows(algebra.field.degree, gens)
        return QuaternionLattice._from_z_rows(algebra, _z_structure(algebra.field, rows), den)

    @staticmethod
    def _from_z_rows(algebra, zrows, den) -> QuaternionLattice:
        """The lattice whose Z-structure is spanned by the integer rows over den."""
        fld = algebra.field
        rows = hnf_int(zrows)
        if len(rows) != 4 * fld.degree:
            raise ValueError(f"generators span rank {len(rows) // fld.degree} < 4")
        if fld.degree == 2:
            ol = [[fld.integer(a, b) for a, b in zip(r[::2], r[1::2])] for r in rows]
            rows = [[c for e in r for c in e.coords()] for r in hnf_ol(fld, ol)]
        return QuaternionLattice._normalized(algebra, rows, den)

    @staticmethod
    def _normalized(algebra, rows, den) -> QuaternionLattice:
        g = gcd(den, *(e for r in rows for e in r))
        if g > 1:
            rows = [[e // g for e in r] for r in rows]
            den //= g
        return QuaternionLattice(algebra, tuple(tuple(r) for r in rows), den)

    # -- basic views ---------------------------------------------------------

    def basis(self) -> list[QuaternionElement]:
        return [
            self.algebra.element(*[FieldElement.make(e, self.den) for e in row])
            for row in self.mat
        ]

    def z_rows(self) -> list[list[int]]:
        """Integer rows of the rank-4g Z-structure, interleaved (b_m, omega*b_m)."""
        if self._zrows is None:
            self._zrows = _z_structure(self.algebra.field, self.rows)
        return self._zrows

    def z_basis(self) -> list[QuaternionElement]:
        """Quaternions of the Z-structure in the same order as z_rows()."""
        f = self.algebra.field
        out = []
        for b in self.basis():
            out.append(b)
            if f.degree == 2:
                out.append(b.scale(f.omega.to_element()))
        return out

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

    def coordinates(self, q: QuaternionElement) -> list[AlgebraicInteger]:
        """Coordinates of q in the lattice basis; raises ValueError unless q is in the lattice."""
        (row,), den = _integer_rows(self.algebra.field.degree, [q])
        return self._solve(row, den)

    def _solve(self, row, den: int) -> list[AlgebraicInteger]:
        """Coordinates of the element row/den by back-substitution in the O_L-triangular rows.

        Every step is an exact division in O_L; raises ValueError when one fails.
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
                k = fld.integer(q)
            else:
                k = exact_div(fld.integer(w[2 * i], w[2 * i + 1]), self.mat[i][i])
            out.append(k)
            if not k.is_zero():
                w = [a - b for a, b in zip(w, _scale_row(fld, h, k))]
        return out

    def contains(self, q: QuaternionElement) -> bool:
        """Membership: q is in the lattice exactly when its coordinates are in O_L."""
        try:
            self.coordinates(q)
        except ValueError:
            return False
        return True

    def contains_lattice(self, other: QuaternionLattice) -> bool:
        return all(self.contains(b) for b in other.basis())

    # -- arithmetic ----------------------------------------------------------

    def multiply(self, other: QuaternionLattice) -> QuaternionLattice:
        """The lattice spanned by the 16 products of basis rows."""
        fld = self.algebra.field
        mul = _structure(self.algebra)[0]
        size = 4 * fld.degree
        prods = [_bilinear(mul, r, s, size) for r in self.rows for s in other.rows]
        return QuaternionLattice._from_z_rows(self.algebra, _z_structure(fld, prods), self.den * other.den)

    def product_coordinates(self) -> list[list[tuple[AlgebraicInteger, ...]]]:
        """Coordinates of b_m * b_n in this basis; raises ValueError unless L*L <= L."""
        mul = _structure(self.algebra)[0]
        size = 4 * self.algebra.field.degree
        sq = self.den * self.den
        return [[tuple(self._solve(_bilinear(mul, r, s, size), sq)) for s in self.rows] for r in self.rows]

    def conjugate(self) -> QuaternionLattice:
        """conj(L): the basis rows with their i, j and k columns negated."""
        g = self.algebra.field.degree
        rows = [r[:g] + tuple(-c for c in r[g:]) for r in self.rows]
        return QuaternionLattice._from_z_rows(self.algebra, _z_structure(self.algebra.field, rows), self.den)

    def scale(self, c) -> QuaternionLattice:
        return QuaternionLattice.from_generators(self.algebra, [b.scale(c) for b in self.basis()])

    def right_multiply(self, q: QuaternionElement) -> QuaternionLattice:
        return QuaternionLattice.from_generators(self.algebra, [b * q for b in self.basis()])

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
        if self._gram is None:
            trd = _structure(self.algebra)[1]
            g = self.algebra.field.degree
            self._gram = tuple(
                tuple(tuple(_bilinear(trd, r, s, g)) for s in self.rows) for r in self.rows
            )
        return self._gram

    def det_pairing(self) -> FieldElement:
        """Determinant of the Trd(x * y) pairing; its ideal is the squared reduced discriminant.

        The basis is triangular over (1, i, j, k), whose pairing is
        diag(2, 2a, 2b, -2ab), so the determinant is
        -16 a^2 b^2 (product of the pivots)^2 / den^8.
        """
        m = self.mat
        piv = m[0][0] * m[1][1] * m[2][2] * m[3][3]
        ab = self.algebra.a * self.algebra.b
        return FieldElement.make(-16 * ab * ab * piv * piv, self.den ** 8)

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
            inv = r[:g] + tuple(-c for c in r[g:])  # conj(r)
            if g == 2:
                inv = _scale_row(fld, inv, n.conjugate())
            prods = [
                _bilinear(mul, t, inv, size) if side == "left" else _bilinear(mul, inv, t, size)
                for t in self.rows
            ]
            piece = QuaternionLattice._from_z_rows(self.algebra, _z_structure(fld, prods), n.norm())
            out = piece if out is None else out.intersect(piece)
        return out
