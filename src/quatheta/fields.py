"""Exact arithmetic in L = Q or a real quadratic field Q(sqrt(d)) with narrow class number one.

Elements of the ring of integers O_L are stored as integer pairs (a, b)
meaning a + b*omega, where omega = (1+sqrt(d))/2 for d = 1 mod 4 and
omega = sqrt(d) otherwise (b is forced to 0 over Q).  All operations are
exact; no floating point enters any correctness path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .errors import CompositeP, RamifiedPrime, UnsupportedField

# d -> (fundamental unit coordinates, |zeta_L(-1)|).  Every d here has
# narrow class number one and a fundamental unit of norm -1, which is the
# certificate `field` checks with totally_positive_units_mod_squares.
_FIELD_TABLE = {
    1: (None, Fraction(1, 12)),
    2: ((1, 1), Fraction(1, 12)),
    5: ((0, 1), Fraction(1, 30)),
    13: ((1, 1), Fraction(1, 6)),
    17: ((3, 2), Fraction(1, 3)),
}


@dataclass(frozen=True)
class FieldDescriptor:
    """The real field L, described by its squarefree index d (d=1 encodes Q)."""

    d: int
    degree: int
    omega_trace: int  # trace of omega, so omega^2 = omega_trace*omega - omega_norm
    omega_norm: int
    discriminant: int
    unit_coords: tuple[int, int] | None
    zeta_minus_one_abs: Fraction

    def integer(self, a: int, b: int = 0) -> AlgebraicInteger:
        if self.degree == 1 and b != 0:
            raise ValueError("rational field has no omega component")
        return AlgebraicInteger(self, a, b)

    @property
    def zero(self) -> AlgebraicInteger:
        return self.integer(0)

    @property
    def one(self) -> AlgebraicInteger:
        return self.integer(1)

    @property
    def omega(self) -> AlgebraicInteger:
        return self.integer(0, 1)

    @property
    def fundamental_unit(self) -> AlgebraicInteger | None:
        if self.unit_coords is None:
            return None
        return self.integer(*self.unit_coords)

    def __repr__(self) -> str:
        return "Q" if self.d == 1 else f"Q(sqrt{self.d})"


@lru_cache(maxsize=None)
def field(d: int) -> FieldDescriptor:
    """Construct the field for an allowlisted d, its unit certified; rejects anything else."""
    if d not in _FIELD_TABLE:
        raise UnsupportedField(f"d={d} is not in the vetted allowlist {sorted(_FIELD_TABLE)}")
    unit, zeta = _FIELD_TABLE[d]
    if d == 1:
        fld = FieldDescriptor(1, 1, 0, 0, 1, None, zeta)
    elif d % 4 == 1:
        fld = FieldDescriptor(d, 2, 1, (1 - d) // 4, d, unit, zeta)
    else:
        fld = FieldDescriptor(d, 2, 0, -d, 4 * d, unit, zeta)
    totally_positive_units_mod_squares(fld)
    return fld


class AlgebraicInteger:
    """An element a + b*omega of O_L with exact integer arithmetic."""

    __slots__ = ("field", "a", "b")

    def __init__(self, fld: FieldDescriptor, a: int, b: int):
        self.field = fld
        self.a = a
        self.b = b

    def _coerce(self, other) -> AlgebraicInteger:
        if isinstance(other, AlgebraicInteger):
            if other.field is not self.field:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, int):
            return AlgebraicInteger(self.field, other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return AlgebraicInteger(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return AlgebraicInteger(self.field, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> AlgebraicInteger:
        return AlgebraicInteger(self.field, -self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        f = self.field
        bb = self.b * o.b
        return AlgebraicInteger(
            f,
            self.a * o.a - f.omega_norm * bb,
            self.a * o.b + self.b * o.a + f.omega_trace * bb,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> AlgebraicInteger:
        if n < 0:
            raise ValueError("negative powers leave O_L")
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            return self.a == other and self.b == 0
        if isinstance(other, AlgebraicInteger):
            return self.field is other.field and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        return hash((self.field.d, self.a, self.b))

    def __repr__(self) -> str:
        if self.field.degree == 1 or self.b == 0:
            return str(self.a)
        return f"({self.a}{self.b:+}w)"

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def conjugate(self) -> AlgebraicInteger:
        f = self.field
        return AlgebraicInteger(f, self.a + f.omega_trace * self.b, -self.b)

    def norm(self) -> int:
        f = self.field
        if f.degree == 1:
            return self.a
        return self.a * self.a + f.omega_trace * self.a * self.b + f.omega_norm * self.b * self.b

    def trace(self) -> int:
        if self.field.degree == 1:
            return self.a
        return 2 * self.a + self.field.omega_trace * self.b

    def is_unit(self) -> bool:
        return abs(self.norm()) == 1

    def is_totally_positive(self) -> bool:
        if self.field.degree == 1:
            return self.a > 0
        return self.trace() > 0 and self.norm() > 0

    def key(self) -> tuple[int, int, int]:
        """Canonical ordering key: trace, then coordinate a, then b."""
        return (self.trace(), self.a, self.b)

    def coords(self) -> tuple[int, int]:
        return (self.a, self.b)


def _quotient(x: AlgebraicInteger, y: AlgebraicInteger) -> AlgebraicInteger | None:
    """x / y when y divides x in O_L, else None; y must be nonzero."""
    # x/y = x conj(y) / (y conj(y)), and y conj(y) is a rational integer
    yc = y.conjugate()
    num, nn = x * yc, (y * yc).a
    (a, ra), (b, rb) = divmod(num.a, nn), divmod(num.b, nn)
    return None if ra or rb else x.field.integer(a, b)


def exact_div(x: AlgebraicInteger, y: AlgebraicInteger) -> AlgebraicInteger:
    """x / y when y divides x in O_L; raises otherwise."""
    q = _quotient(x, y)
    if q is None:
        raise ValueError(f"{y!r} does not divide {x!r}")
    return q


def divides(y: AlgebraicInteger, x: AlgebraicInteger) -> bool:
    if y.is_zero():
        return x.is_zero()
    return _quotient(x, y) is not None


def canonical_positive_associate(x: AlgebraicInteger) -> AlgebraicInteger:
    """The canonical totally positive generator of the principal ideal (x).

    Among all totally positive associates, picks the one minimizing
    (trace, a, b).  The trace is strictly convex along the orbit under
    squares of the fundamental unit, so the walk below terminates.
    """
    f = x.field
    if x.is_zero():
        return x
    if f.degree == 1:
        return f.integer(abs(x.a))
    eps = f.fundamental_unit
    if x.norm() < 0:
        x = x * eps  # norm(eps) = -1 flips the sign of the norm
    if not x.is_totally_positive():
        x = -x
    e2 = eps * eps
    e2inv = eps.conjugate() * eps.conjugate()  # eps^-1 = -conj(eps), so eps^-2 = conj(eps)^2
    while True:
        up = x * e2
        if up.key() < x.key():
            x = up
            continue
        dn = x * e2inv
        if dn.key() < x.key():
            x = dn
            continue
        return x


def is_associate(x: AlgebraicInteger, y: AlgebraicInteger) -> bool:
    """True when (x) = (y) as ideals of O_L."""
    if x.is_zero() or y.is_zero():
        return x.is_zero() and y.is_zero()
    return divides(x, y) and divides(y, x)


def euclid_divmod(x: AlgebraicInteger, y: AlgebraicInteger) -> tuple[AlgebraicInteger, AlgebraicInteger]:
    """Quotient and remainder with |norm(r)| < |norm(y)|.

    All allowlisted fields are norm-Euclidean; the quotient is chosen among
    a small grid of integer roundings of x/y, minimizing |norm(r)| with a
    deterministic tie-break.
    """
    f = x.field
    if y.is_zero():
        raise ZeroDivisionError("division by zero")
    t, n = f.omega_trace, f.omega_norm
    yc = y.conjugate()  # x/y = x conj(y) / (y conj(y)), a rational denominator
    num, nn = x * yc, (y * yc).a
    fa, fb = num.a // nn, num.b // nn
    ynorm = abs(y.norm())
    for width in (2, 4):
        a_range = range(-width + 1, width + 1)
        b_range = (0,) if f.degree == 1 else a_range
        best = None
        for da in a_range:
            for db in b_range:
                qa, qb = fa + da, fb + db
                bb = qb * y.b
                ra = x.a - (qa * y.a - n * bb)
                rb = x.b - (qa * y.b + qb * y.a + t * bb)
                rnorm = abs(ra) if f.degree == 1 else abs(ra * ra + t * ra * rb + n * rb * rb)
                # ties: the keys of r, then of q (ordered as AlgebraicInteger.key)
                cand = (rnorm, 2 * ra + t * rb, ra, rb, 2 * qa + t * qb, qa, qb)
                if best is None or cand < best:
                    best = cand
        if best[0] < ynorm:
            _, _, ra, rb, _, qa, qb = best
            return f.integer(qa, qb), f.integer(ra, rb)
    raise ArithmeticError(f"euclidean step failed for {x!r} / {y!r}")


def field_gcd(x: AlgebraicInteger, y: AlgebraicInteger) -> AlgebraicInteger:
    """A gcd of (x, y) in O_L, normalized to the canonical positive associate."""
    if x.field.degree == 1:
        return x.field.integer(gcd(x.a, y.a))
    while not y.is_zero():
        _, r = euclid_divmod(x, y)
        x, y = y, r
    return canonical_positive_associate(x)


def _ideal_generator(fld: FieldDescriptor, hnf: list[list[int]]) -> AlgebraicInteger:
    """The canonical totally positive generator of a nonzero ideal of O_L, from
    the integer HNF of its Z-structure: [[alpha]] over Q, [[alpha, beta], [0,
    delta]] over Q(sqrt d).  Over Q(sqrt d) the Z-basis alpha + beta*omega,
    delta*omega also generates the ideal over O_L."""
    if fld.degree == 1:
        return fld.integer(hnf[0][0])
    (alpha, beta), (_, delta) = hnf
    return field_gcd(fld.integer(alpha, beta), fld.integer(0, delta))


def totally_positive_units_mod_squares(fld: FieldDescriptor) -> frozenset[AlgebraicInteger]:
    """The trivial group {1}, after certifying that every totally positive unit is a square.

    Over Q this is immediate.  For the quadratic fields the certificate is
    that the tabulated fundamental unit is a genuine unit of norm -1; a
    failure here means the allowlist is wrong and is raised loudly.
    """
    if fld.degree == 1:
        return frozenset({fld.one})
    eps = fld.fundamental_unit
    if eps is None or eps.norm() != -1:
        raise UnsupportedField(
            f"d={fld.d}: fundamental unit certificate failed (norm {eps.norm() if eps else None})"
        )
    return frozenset({fld.one})


def enumerate_totally_positive(fld: FieldDescriptor, trace_bound: int) -> list[AlgebraicInteger]:
    """All nu in O_L with nu >> 0 and trace(nu) <= trace_bound, plus 0.

    Output is in canonical order: by trace, then coordinate a, then b.
    """
    if trace_bound < 0:
        raise ValueError("trace bound must be nonnegative")
    out = [fld.zero]
    if fld.degree == 1:
        out.extend(fld.integer(n) for n in range(1, trace_bound + 1))
        return out
    if trace_bound == 0:
        return out
    # |sigma1(nu) - sigma2(nu)| < trace for totally positive nu of bounded
    # trace, and (sigma1-sigma2)^2 = b^2 * disc.
    bmax = isqrt(max(trace_bound * trace_bound - 1, 0) // fld.discriminant)
    found = []
    for b in range(-bmax, bmax + 1):
        # trace = 2a + omega_trace*b must lie in [1, trace_bound]
        lo = -(-(1 - fld.omega_trace * b) // 2)
        hi = (trace_bound - fld.omega_trace * b) // 2
        for a in range(lo, hi + 1):
            x = fld.integer(a, b)
            if x.is_totally_positive():
                found.append(x)
    found.sort(key=AlgebraicInteger.key)
    out.extend(found)
    return out


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime of O_L above the rational prime ell, with a canonical generator."""

    field: FieldDescriptor
    residue_char: int
    e: int  # ramification index
    f: int  # residue degree
    generator: AlgebraicInteger
    root: int | None  # omega mod the prime, when the residue field is F_ell

    @property
    def norm(self) -> int:
        return self.residue_char ** self.f

    def reduce_coords(self, x: AlgebraicInteger) -> tuple[int, int]:
        """Image of x in the residue field as (u, v); v = 0 when f = 1."""
        ell = self.residue_char
        if self.root is not None:
            return ((x.a + x.b * self.root) % ell, 0)
        return (x.a % ell, x.b % ell)

    def valuation(self, x: AlgebraicInteger) -> int:
        """The number of exact divisions of x by the generator."""
        if x.is_zero():
            raise ValueError("valuation of zero")
        v = 0
        while (x := _quotient(x, self.generator)) is not None:
            v += 1
        return v

    def residue_field(self) -> ResidueField:
        return ResidueField(self)

    def __repr__(self) -> str:
        return f"({self.generator!r})"


class ResidueField:
    """The finite field O_L / q, elements encoded as integer pairs (u, v)."""

    def __init__(self, prime: PrimeIdeal):
        self.prime = prime
        self.ell = prime.residue_char
        self.size = prime.norm
        self.zero = (0, 0)
        self.one = (1, 0)
        f = prime.field
        self._wt = f.omega_trace % self.ell
        self._wn = f.omega_norm % self.ell

    def elements(self):
        ell = self.ell
        if self.size == ell:
            for u in range(ell):
                yield (u, 0)
        else:
            for u in range(ell):
                for v in range(ell):
                    yield (u, v)

    def add(self, x, y):
        return ((x[0] + y[0]) % self.ell, (x[1] + y[1]) % self.ell)

    def sub(self, x, y):
        return ((x[0] - y[0]) % self.ell, (x[1] - y[1]) % self.ell)

    def neg(self, x):
        return ((-x[0]) % self.ell, (-x[1]) % self.ell)

    def mul(self, x, y):
        ell = self.ell
        if self.size == ell:
            return ((x[0] * y[0]) % ell, 0)
        bb = x[1] * y[1]
        return (
            (x[0] * y[0] - self._wn * bb) % ell,
            (x[0] * y[1] + x[1] * y[0] + self._wt * bb) % ell,
        )

    def inv(self, x):
        if x == self.zero:
            raise ZeroDivisionError("residue field inverse of zero")
        # Fermat: x^(q-2); the field is tiny so repeated squaring is plenty.
        out, base, n = self.one, x, self.size - 2
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def reduce(self, x: AlgebraicInteger):
        return self.prime.reduce_coords(x)


def _tp_generator_of_norm(fld: FieldDescriptor, target: int, member) -> AlgebraicInteger:
    """Smallest (canonical key) totally positive x with norm(x) = target and member(x)."""
    bound = 2 * isqrt(target) + 2
    while True:
        cands = [
            x
            for x in enumerate_totally_positive(fld, bound)[1:]
            if x.norm() == target and member(x)
        ]
        if cands:
            return min(cands, key=AlgebraicInteger.key)
        bound *= 2
        if bound > 10 ** 7:
            raise ArithmeticError(f"no generator of norm {target} found")


def is_prime(n: int) -> bool:
    """Trial division; the rational primes handled here are small."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=None)
def primes_above(fld: FieldDescriptor, ell: int) -> tuple[PrimeIdeal, ...]:
    """The primes of O_L above a rational prime, ordered by generator key.

    Raises CompositeP when `ell` is not a rational prime.
    """
    if not is_prime(ell):
        raise CompositeP(f"{ell} is not prime")
    if fld.degree == 1:
        return (PrimeIdeal(fld, ell, 1, 1, fld.integer(ell), 0),)
    if fld.discriminant % ell == 0:
        if fld.d % 4 == 1:
            # disc = d prime: sqrt(d) = 2*omega - 1 generates; double root of the minpoly
            gen = canonical_positive_associate(fld.integer(-1, 2))
            root = (pow(2, -1, ell)) % ell
        else:
            gen = canonical_positive_associate(fld.omega)  # d=2: omega = sqrt(2)
            root = 0
        return (PrimeIdeal(fld, ell, 2, 1, gen, root),)
    # minpoly of omega: x^2 - t x + n mod ell
    t, n = fld.omega_trace, fld.omega_norm
    roots = [r for r in range(ell) if (r * r - t * r + n) % ell == 0]
    if not roots:
        return (PrimeIdeal(fld, ell, 1, 2, fld.integer(ell), None),)
    prims = []
    for r in sorted(roots):
        gen = _tp_generator_of_norm(fld, ell, lambda x, r=r: (x.a + x.b * r) % ell == 0)
        prims.append(PrimeIdeal(fld, ell, 1, 1, gen, r))
    prims.sort(key=lambda p: p.generator.key())
    return tuple(prims)


def prime_splitting(fld: FieldDescriptor, p: int) -> list[tuple[int, AlgebraicInteger]]:
    """Splitting data of an unramified rational prime: (residue degree, generator) pairs."""
    if fld.discriminant % p == 0:
        raise RamifiedPrime(f"{p} ramifies in {fld!r}")
    return [(P.f, P.generator) for P in primes_above(fld, p)]

