"""The totally definite quaternion algebra ramified at p and all real places,
base-changed to L, with exact reduced norm/trace/conjugation and a
brute-force local certification of its ramification set."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CompositeP, RamificationMismatch, RamifiedPrime
from .fields import (
    AlgebraicInteger,
    FieldDescriptor,
    FieldElement,
    PrimeIdeal,
    exact_div,
    hensel_root,
    is_prime,
    primes_above,
)


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def rational_presentation(p: int) -> tuple[int, int]:
    """Structure constants (a, b) of the rational quaternion algebra ramified at {p, oo}."""
    if not is_prime(p):
        raise CompositeP(f"{p} is not prime")
    if p == 2:
        return (-1, -1)
    if p % 4 == 3:
        return (-1, -p)
    if p % 8 == 5:
        return (-2, -p)
    q = 3
    while not (is_prime(q) and q % 4 == 3 and _legendre(q, p) == -1):
        q += 2
    return (-p, -q)


@dataclass(frozen=True)
class QuaternionAlgebra:
    """(a, b | L): i^2 = a, j^2 = b, ij = -ji = k, with a, b totally negative."""

    field: FieldDescriptor
    p: int
    a: AlgebraicInteger
    b: AlgebraicInteger

    def element(self, t, x, y, z) -> QuaternionElement:
        coerced = tuple(
            c if isinstance(c, FieldElement) else self.field.element(*_as_coords(c))
            for c in (t, x, y, z)
        )
        return QuaternionElement(self, *coerced)

    @property
    def one(self) -> QuaternionElement:
        return self.element(1, 0, 0, 0)

    @property
    def zero(self) -> QuaternionElement:
        return self.element(0, 0, 0, 0)

    def basis(self) -> tuple[QuaternionElement, ...]:
        e = self.element
        return (e(1, 0, 0, 0), e(0, 1, 0, 0), e(0, 0, 1, 0), e(0, 0, 0, 1))

    def __repr__(self) -> str:
        return f"({self.a!r},{self.b!r} | {self.field!r})"


def _as_coords(c):
    if isinstance(c, AlgebraicInteger):
        return (c.a, c.b, 1)
    return (c, 0, 1)


class QuaternionElement:
    """Coordinates (t, x, y, z) with respect to the basis (1, i, j, k)."""

    __slots__ = ("algebra", "t", "x", "y", "z")

    def __init__(self, alg: QuaternionAlgebra, t: FieldElement, x: FieldElement, y: FieldElement, z: FieldElement):
        self.algebra = alg
        self.t, self.x, self.y, self.z = t, x, y, z

    def coords(self) -> tuple[FieldElement, FieldElement, FieldElement, FieldElement]:
        return (self.t, self.x, self.y, self.z)

    def __add__(self, o: QuaternionElement) -> QuaternionElement:
        return QuaternionElement(self.algebra, self.t + o.t, self.x + o.x, self.y + o.y, self.z + o.z)

    def __sub__(self, o: QuaternionElement) -> QuaternionElement:
        return QuaternionElement(self.algebra, self.t - o.t, self.x - o.x, self.y - o.y, self.z - o.z)

    def __neg__(self) -> QuaternionElement:
        return QuaternionElement(self.algebra, -self.t, -self.x, -self.y, -self.z)

    def __mul__(self, o):
        if isinstance(o, QuaternionElement):
            a = self.algebra.a.to_element()
            b = self.algebra.b.to_element()
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

    def __rmul__(self, o):
        return self.scale(o)

    def scale(self, c) -> QuaternionElement:
        return QuaternionElement(self.algebra, self.t * c, self.x * c, self.y * c, self.z * c)

    def __eq__(self, o) -> bool:
        return (
            isinstance(o, QuaternionElement)
            and self.algebra == o.algebra
            and self.coords() == o.coords()
        )

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
        a = self.algebra.a.to_element()
        b = self.algebra.b.to_element()
        t, x, y, z = self.coords()
        return t * t - a * x * x - b * y * y + a * b * z * z


# ---------------------------------------------------------------------------
# Local solvability of z^2 = a x^2 + b y^2 (Hilbert symbols by finite search)


class _ResidueRing:
    """O_L / q^k, elements as coordinate pairs with per-coordinate moduli."""

    def __init__(self, prime: PrimeIdeal, k: int):
        fld = prime.field
        ell = prime.residue_char
        self.prime = prime
        if prime.e == 2 and ell != 2:
            if k != 1:
                raise NotImplementedError("odd ramified rings are only needed at k=1")
            self.m0 = ell
            self.m1 = 1
            self._mode = "rank1"
            self._root = prime.root
        elif prime.e == 2:
            # O_L = Z[sqrt(2)]; (sqrt2)^k = 2^(k//2) * sqrt(2)^(k%2)
            self.m0 = 2 ** ((k + 1) // 2)
            self.m1 = 2 ** (k // 2)
            self._mode = "ram2"
        elif prime.f == 2:
            self.m0 = self.m1 = ell ** k
            self._mode = "inert"
            self._wt = fld.omega_trace % self.m0
            self._wn = fld.omega_norm % self.m0
        else:
            self.m0 = ell ** k
            self.m1 = 1
            self._mode = "rank1"
            self._root = 0 if fld.degree == 1 else hensel_root(fld, prime, self.m0)
        self.ell = ell

    def elements(self):
        for u in range(self.m0):
            for v in range(self.m1):
                yield (u, v)

    def reduce(self, x: AlgebraicInteger):
        if self._mode == "rank1":
            return ((x.a + x.b * getattr(self, "_root", 0)) % self.m0, 0)
        return (x.a % self.m0, x.b % self.m1)

    def add(self, p, q):
        return ((p[0] + q[0]) % self.m0, (p[1] + q[1]) % self.m1)

    def mul(self, p, q):
        if self._mode == "rank1":
            return ((p[0] * q[0]) % self.m0, 0)
        if self._mode == "ram2":
            return (
                (p[0] * q[0] + 2 * p[1] * q[1]) % self.m0,
                (p[0] * q[1] + p[1] * q[0]) % self.m1,
            )
        bb = p[1] * q[1]
        return (
            (p[0] * q[0] - self._wn * bb) % self.m0,
            (p[0] * q[1] + p[1] * q[0] + self._wt * bb) % self.m1,
        )

    def is_unit(self, p) -> bool:
        if self._mode == "inert":
            return p[0] % self.ell != 0 or p[1] % self.ell != 0
        return p[0] % self.ell != 0


def _search_even_ring(ring: _ResidueRing, a, b) -> bool:
    """Primitive solvability of z^2 = a x^2 + b y^2 over a 2-adic residue ring."""
    elems = list(ring.elements())
    sq_all = set()
    sq_unit = set()
    for z in elems:
        s = ring.mul(z, z)
        sq_all.add(s)
        if ring.is_unit(z):
            sq_unit.add(s)
    ra, rb = ring.reduce(a), ring.reduce(b)
    ax2 = [(ring.mul(ra, ring.mul(x, x)), ring.is_unit(x)) for x in elems]
    for y in elems:
        by2 = ring.mul(rb, ring.mul(y, y))
        y_unit = ring.is_unit(y)
        for v, x_unit in ax2:
            need = ring.add(v, by2)
            if x_unit or y_unit:
                if need in sq_all:
                    return True
            elif need in sq_unit:
                return True
    return False


def _square_classes_odd(F) -> set:
    return {F.mul(x, x) for x in F.elements() if x != F.zero}


def hilbert_symbol(fld: FieldDescriptor, a: AlgebraicInteger, b: AlgebraicInteger, prime: PrimeIdeal) -> int:
    """The local Hilbert symbol (a, b) at a finite prime, by finite search.

    Odd primes: after stripping square uniformizer factors the valuations of
    a and b are 0 or 1, and solvability reduces to a search over the residue
    field (a smooth conic always has a point there; with one coefficient of
    valuation one the binary part must represent a square).  Even primes:
    direct primitive-solution search modulo q^k with k large enough that a
    primitive solution is Hensel-liftable.
    """
    va, vb = prime.valuation(a), prime.valuation(b)
    gen2 = prime.generator * prime.generator
    while va >= 2:
        a = exact_div(a, gen2)
        va -= 2
    while vb >= 2:
        b = exact_div(b, gen2)
        vb -= 2
    if vb > va:
        a, b, va, vb = b, a, vb, va  # symbol is symmetric
    if prime.residue_char != 2:
        F = prime.residue_field()
        squares = _square_classes_odd(F)
        if va == 0 and vb == 0:
            # smooth conic over a finite field: a point always exists; find one
            ra, rb = F.reduce(a), F.reduce(b)
            for x in F.elements():
                ax2 = F.mul(ra, F.mul(x, x))
                for y in F.elements():
                    if x == F.zero and y == F.zero:
                        continue
                    v = F.add(ax2, F.mul(rb, F.mul(y, y)))
                    if v == F.zero or v in squares:
                        return 1
            raise ArithmeticError("no point on a smooth conic over a finite field")
        if va == 1 and vb == 0:
            # z^2 = a x^2 + b y^2 with val(a)=1: primitive solutions force
            # z^2 = b y^2 mod q with (y, z) != 0, i.e. b a square in the residue field
            rb = F.reduce(b)
            return 1 if rb in squares else -1
        # va = vb = 1: (a, b) = (a, -a b) and val(-a b) = 2, strip and recurse
        bb = exact_div(-(a * b), gen2)
        return hilbert_symbol(fld, a, bb, prime)
    k = 9 if prime.e == 2 else 6
    ring = _ResidueRing(prime, k)
    return 1 if _search_even_ring(ring, a, b) else -1


@lru_cache(maxsize=None)
def verify_ramification(alg: QuaternionAlgebra) -> tuple[PrimeIdeal, ...]:
    """Finite ramified primes of the algebra, certified against the expected set.

    Computes Hilbert symbols at every prime dividing 2ab, asserts the result
    equals the primes above p with odd residue degree, and asserts total
    negativity of (a, b) for the real places.
    """
    fld = alg.field
    if not (-alg.a).is_totally_positive() or not (-alg.b).is_totally_positive():
        raise RamificationMismatch("structure constants must be totally negative")
    cands: dict[tuple[int, int], PrimeIdeal] = {}
    rationals = {2, alg.p}
    for c in (alg.a.norm(), alg.b.norm()):
        c = abs(c)
        f = 2
        while f * f <= c:
            while c % f == 0:
                rationals.add(f)
                c //= f
            f += 1
        if c > 1:
            rationals.add(c)
    for ell in sorted(rationals):
        for P in primes_above(fld, ell):
            cands[P.generator.coords()] = P
    ramified = [
        P for _, P in sorted(cands.items()) if hilbert_symbol(fld, alg.a, alg.b, P) == -1
    ]
    expected = [P for P in primes_above(fld, alg.p) if P.f % 2 == 1]
    if {P.generator.coords() for P in ramified} != {P.generator.coords() for P in expected}:
        raise RamificationMismatch(
            f"ramified set {ramified} does not match expected {expected} for {alg!r}"
        )
    return tuple(sorted(ramified, key=lambda P: P.generator.key()))


@lru_cache(maxsize=None)
def construct(fld: FieldDescriptor, p: int) -> QuaternionAlgebra:
    """The definite quaternion algebra of prime discriminant p over Q, base-changed to L.

    Structure constants come from the classical rational table and every
    construction is certified by verify_ramification.  Raises CompositeP
    unless p is a rational prime.
    """
    if not is_prime(p):
        raise CompositeP(f"{p} is not prime")
    if fld.discriminant % p == 0:
        raise RamifiedPrime(f"{p} ramifies in {fld!r}")
    a, b = rational_presentation(p)
    alg = QuaternionAlgebra(fld, p, fld.integer(a), fld.integer(b))
    verify_ramification(alg)
    return alg
