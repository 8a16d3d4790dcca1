"""The totally definite quaternion algebra ramified at p and all real places,
base-changed to L, with exact reduced norm/trace/conjugation and a
certificate of its ramification set from closed-form local Hilbert symbols."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CompositeP, RamificationMismatch, RamifiedPrime
from .fields import (
    AlgebraicInteger,
    FieldDescriptor,
    FieldElement,
    PrimeIdeal,
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
# Local Hilbert symbols of rational structure constants, in closed form


def _split_off(x: int, ell: int) -> tuple[int, int]:
    """(alpha, u) with x = ell^alpha * u and u prime to ell."""
    alpha = 0
    while x % ell == 0:
        x //= ell
        alpha += 1
    return alpha, x


def _rational_hilbert_symbol(a: int, b: int, ell: int) -> int:
    """(a, b)_ell over Q_ell for nonzero integers (Serre, A Course in Arithmetic, III Thm. 1)."""
    alpha, u = _split_off(a, ell)
    beta, v = _split_off(b, ell)
    if ell != 2:
        sign = -1 if alpha * beta * (ell - 1) // 2 % 2 else 1
        return sign * _legendre(u, ell) ** beta * _legendre(v, ell) ** alpha

    def eps(x):
        return (x - 1) // 2 % 2

    def omega(x):
        return (x * x - 1) // 8 % 2

    return -1 if (eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)) % 2 else 1


def hilbert_symbol(fld: FieldDescriptor, a: AlgebraicInteger, b: AlgebraicInteger, prime: PrimeIdeal) -> int:
    """The local Hilbert symbol (a, b) at a finite prime of L, for rational integers a, b.

    For a, b in Q_ell and a prime of local degree n = e f over ell,
    (a, b)_prime = (a, N(b))_ell = (a, b)_ell^n.  Raises ValueError unless a
    and b are nonzero rational integers.
    """
    if a.b or b.b or a.is_zero() or b.is_zero():
        raise ValueError(f"Hilbert symbol needs nonzero rational integers, got {a!r}, {b!r}")
    return _rational_hilbert_symbol(a.a, b.a, prime.residue_char) ** (prime.e * prime.f)


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
    rationals = {2}
    c = abs(alg.a.a * alg.b.a)
    f = 2
    while f * f <= c:
        while c % f == 0:
            rationals.add(f)
            c //= f
        f += 1
    if c > 1:
        rationals.add(c)
    ramified = [
        P for ell in rationals for P in primes_above(fld, ell) if hilbert_symbol(fld, alg.a, alg.b, P) == -1
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
