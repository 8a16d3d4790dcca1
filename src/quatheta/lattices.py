"""Full rank-4 O_L-lattices in a quaternion algebra.

A lattice is stored as a canonical Hermite-normal-form basis over O_L
(possible because every allowlisted field is norm-Euclidean with trivial
class group) together with a global integer denominator.  Canonical form
makes equality, hashing and serialization trivial.
"""

from __future__ import annotations

from math import gcd, lcm

from .fields import (
    AlgebraicInteger,
    FieldElement,
    canonical_positive_associate,
    exact_div,
    field_xgcd,
)
from .linalg import det_generic, hnf_int, inverse_generic, kernel_int
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


class QuaternionLattice:
    """A full O_L-lattice in B, canonical basis rows over a common denominator."""

    __slots__ = ("algebra", "mat", "den", "_inv", "_zrows")

    def __init__(self, algebra: QuaternionAlgebra, mat, den: int):
        self.algebra = algebra
        self.mat = mat  # 4 rows of 4 AlgebraicInteger (canonical HNF)
        self.den = den
        self._inv = None
        self._zrows = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_generators(algebra: QuaternionAlgebra, gens: list[QuaternionElement]) -> QuaternionLattice:
        fld = algebra.field
        den = 1
        for q in gens:
            for c in q.coords():
                den = lcm(den, c.den)
        rows = []
        for q in gens:
            rows.append([(c * den).to_integer() for c in q.coords()])
        rows = hnf_ol(fld, rows)
        if len(rows) != 4:
            raise ValueError(f"generators span rank {len(rows)} < 4")
        return QuaternionLattice._normalized(algebra, rows, den)

    @staticmethod
    def _normalized(algebra, rows, den) -> QuaternionLattice:
        g = den
        for r in rows:
            for e in r:
                g = gcd(g, gcd(abs(e.a), abs(e.b)))
        if g > 1:
            fld = algebra.field
            rows = [[fld.integer(e.a // g, e.b // g) for e in r] for r in rows]
            den //= g
        return QuaternionLattice(algebra, tuple(tuple(r) for r in rows), den)

    # -- basic views ---------------------------------------------------------

    def basis(self) -> list[QuaternionElement]:
        f = self.algebra.field
        return [
            self.algebra.element(*[FieldElement.make(e, self.den) for e in row])
            for row in self.mat
        ]

    def basis_field_matrix(self) -> list[list[FieldElement]]:
        return [[FieldElement.make(e, self.den) for e in row] for row in self.mat]

    def z_rows(self) -> list[list[int]]:
        """Integer rows of the rank-4g Z-structure, interleaved (b_m, omega*b_m)."""
        if self._zrows is not None:
            return self._zrows
        f = self.algebra.field
        rows = []
        for row in self.mat:
            if f.degree == 1:
                rows.append([e.a for e in row])
            else:
                rows.append([c for e in row for c in (e.a, e.b)])
                wrow = [f.omega * e for e in row]
                rows.append([c for e in wrow for c in (e.a, e.b)])
        self._zrows = rows
        return rows

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
            and self.mat == other.mat
        )

    def __hash__(self):
        return hash((self.den, self.mat))

    def __repr__(self) -> str:
        return f"Lattice(den={self.den}, rows={self.mat})"

    # -- membership ----------------------------------------------------------

    def _basis_inverse(self):
        if self._inv is None:
            f = self.algebra.field
            zero, one = f.element(0), f.element(1)
            self._inv = inverse_generic(self.basis_field_matrix(), zero, one)
        return self._inv

    def coordinates(self, q: QuaternionElement) -> list[FieldElement]:
        """Coordinates of q with respect to the lattice basis (may be non-integral)."""
        inv = self._basis_inverse()
        v = q.coords()
        return [sum((v[r] * inv[r][c] for r in range(4)), start=self.algebra.field.element(0)) for c in range(4)]

    def contains(self, q: QuaternionElement) -> bool:
        return all(c.is_integral() for c in self.coordinates(q))

    def contains_lattice(self, other: QuaternionLattice) -> bool:
        return all(self.contains(b) for b in other.basis())

    # -- arithmetic ----------------------------------------------------------

    def multiply(self, other: QuaternionLattice) -> QuaternionLattice:
        gens = [a * b for a in self.basis() for b in other.basis()]
        return QuaternionLattice.from_generators(self.algebra, gens)

    def conjugate(self) -> QuaternionLattice:
        return QuaternionLattice.from_generators(self.algebra, [b.conjugate() for b in self.basis()])

    def scale(self, c) -> QuaternionLattice:
        return QuaternionLattice.from_generators(self.algebra, [b.scale(c) for b in self.basis()])

    def right_multiply(self, q: QuaternionElement) -> QuaternionLattice:
        return QuaternionLattice.from_generators(self.algebra, [b * q for b in self.basis()])

    def add(self, other: QuaternionLattice) -> QuaternionLattice:
        return QuaternionLattice.from_generators(self.algebra, self.basis() + other.basis())

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

    @staticmethod
    def _from_z_rows(algebra, zrows, den) -> QuaternionLattice:
        f = algebra.field
        rows = []
        for zr in zrows:
            if not any(zr):
                continue
            if f.degree == 1:
                rows.append([f.integer(c) for c in zr])
            else:
                rows.append([f.integer(zr[2 * i], zr[2 * i + 1]) for i in range(4)])
        rows = hnf_ol(f, rows)
        if len(rows) != 4:
            raise ValueError("intersection lost full rank")
        return QuaternionLattice._normalized(algebra, rows, den)

    # -- invariants ----------------------------------------------------------

    def det_pairing(self) -> FieldElement:
        """Determinant of the Trd(x * y) pairing; its ideal is the squared reduced discriminant."""
        bs = self.basis()
        rows = [[(x * y).reduced_trace() for y in bs] for x in bs]
        return det_generic(rows, self.algebra.field.element(0))

    def multiplier_lattice(self, side: str) -> QuaternionLattice:
        """{x : x*L <= L} for side='left', {x : L*x <= L} for side='right'."""
        out = None
        for b in self.basis():
            nb = b.reduced_norm()
            binv = b.conjugate().scale(1 / nb)
            piece_gens = (
                [r * binv for r in self.basis()] if side == "left" else [binv * r for r in self.basis()]
            )
            piece = QuaternionLattice.from_generators(self.algebra, piece_gens)
            out = piece if out is None else out.intersect(piece)
        return out
