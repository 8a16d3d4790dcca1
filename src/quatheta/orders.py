"""Orders and locally principal left ideals in the definite quaternion algebra:
level-p Eichler orders (and the maximal orders of trivial discriminant when
every residue degree above p is even), neighbor construction at an auxiliary
prime, ideal-class enumeration with a mass-formula termination certificate,
and unit-group weights.

An order is certified closed by its structure constants, which are kept;
ideal classes are bucketed by the theta prefix of each ideal's own
normalized form, so a candidate costs no lattice product before its
isomorphism tests."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import BadPrime, LevelOneImpossible, MassMismatch, NotAnOrder
from .fields import (
    AlgebraicInteger,
    FieldDescriptor,
    PrimeIdeal,
    canonical_positive_associate,
    divides,
    exact_div,
    is_associate,
    is_prime,
    primes_above,
)
from .lattices import QuaternionLattice, _scale_row
from .linalg import residue_nullspace, residue_rowreduce
from .quadmod import degree_module, hom_module, lattice_norm, norm_counts
from .quaternions import QuaternionAlgebra, verify_ramification
from .shortvec import short_vectors  # noqa: F401  (unused; perfbench/test_perfbench.py reads this binding)


class Order:
    """A certified order: full lattice containing 1 and closed under multiplication."""

    def __init__(self, lattice: QuaternionLattice):
        self.lattice = lattice
        self.algebra = lattice.algebra
        if not lattice.contains(self.algebra.one):
            raise NotAnOrder("lattice does not contain 1")
        self._disc = None
        try:  # every b_m * b_n has coordinates in O_L exactly when L*L <= L
            self._structure = lattice.product_coordinates()
        except ValueError:
            raise NotAnOrder("lattice is not closed under multiplication") from None

    def basis(self):
        return self.lattice.basis()

    def structure_constants(self):
        """coords of b_m * b_n in the order basis, as AlgebraicInteger 4-vectors."""
        return self._structure

    def reduced_discriminant(self) -> AlgebraicInteger:
        """Canonical totally positive d(O) with d(O)^2 = det Trd(b_i b_j) as ideals."""
        if self._disc is None:
            try:
                self._disc = canonical_positive_associate(self.lattice.discriminant())
            except ValueError:
                raise NotAnOrder("discriminant is not integral") from None
        return self._disc

    def __eq__(self, other):
        return isinstance(other, Order) and self.lattice == other.lattice

    def __hash__(self):
        return hash(self.lattice)

    def __repr__(self):
        return f"Order({self.lattice!r})"


@dataclass(frozen=True)
class LeftIdeal:
    """A locally principal left ideal of `order`, with its cached reduced norm."""

    lattice: QuaternionLattice
    order: Order
    norm: AlgebraicInteger

    def __repr__(self):
        return f"LeftIdeal(norm={self.norm!r}, {self.lattice!r})"


def unit_ideal(order: Order) -> LeftIdeal:
    return LeftIdeal(order.lattice, order, order.algebra.field.one)


def left_order(lat: QuaternionLattice) -> Order:
    return Order(lat.multiplier_lattice("left"))


def right_order(lat: QuaternionLattice) -> Order:
    return Order(lat.multiplier_lattice("right"))


# ---------------------------------------------------------------------------
# Reduced norms of ideals


def ideal_norm(lat: QuaternionLattice, order: "Order | None" = None) -> AlgebraicInteger:
    """Canonical totally positive generator of the ideal generated by all Nrd values.

    `order` is the left or right order of the lattice (the right order when
    not given); its discriminant certifies the norm (`lattice_norm`).
    """
    if order is None:
        order = right_order(lat)
    return lattice_norm(lat, order.reduced_discriminant())


# ---------------------------------------------------------------------------
# Residue algebra O / qO


class ResidueAlgebra:
    """O/qO as a 4-dimensional algebra over the residue field of q."""

    def __init__(self, order: Order, prime: PrimeIdeal):
        self.order = order
        self.prime = prime
        self.F = prime.residue_field()
        S = order.structure_constants()
        self.table = [
            [tuple(self.F.reduce(c) for c in S[m][n]) for n in range(4)] for m in range(4)
        ]
        one = order.lattice.coordinates(order.algebra.one)
        self.one = tuple(self.F.reduce(c) for c in one)
        self.zero = (self.F.zero,) * 4
        # the images of the order basis b_m
        self.basis = [tuple(self.F.one if m == n else self.F.zero for n in range(4)) for m in range(4)]

    def mul(self, x, y):
        F = self.F
        out = [F.zero] * 4
        for m in range(4):
            if x[m] == F.zero:
                continue
            for n in range(4):
                if y[n] == F.zero:
                    continue
                c = F.mul(x[m], y[n])
                t = self.table[m][n]
                for r in range(4):
                    if t[r] != F.zero:
                        out[r] = F.add(out[r], F.mul(c, t[r]))
        return tuple(out)

    def elements(self):
        return itertools.product(self.F.elements(), repeat=4)

    def first_idempotent(self):
        """The first x != 0, 1 with x*x = x in elements() order, or None."""
        for x in self.elements():
            if x != self.zero and x != self.one and self.mul(x, x) == x:
                return x
        return None

    def is_nilpotent(self, x) -> bool:
        y = self.mul(x, x)
        y = self.mul(y, y)
        return y == self.zero

    def preimage(self, vecs) -> QuaternionLattice:
        """q*O plus lifts of the coordinate vectors: the lattice between qO and O that reduces to their span."""
        L = self.order.lattice
        fld = L.algebra.field
        rows = [_scale_row(fld, r, self.prime.generator) for r in L.rows]
        rows += [L.combine([fld.integer(*c) for c in v]) for v in vecs]
        return QuaternionLattice.from_rows(L.algebra, rows, L.den)


def _radical_basis(A: ResidueAlgebra) -> list[tuple]:
    """Basis of the Jacobson radical of O/qO as coordinate vectors over F."""
    F = A.F
    if F.ell != 2:
        # odd characteristic: radical of the symmetric pairing Trd(x conj(y)),
        # which is that of Trd(x y) because conj permutes O
        L = A.order.lattice
        fld, sq = L.algebra.field, L.den ** 2
        M = [[F.reduce(fld.integer(*(c // sq for c in e))) for e in row] for row in L.trd_gram()]
        return [tuple(v) for v in residue_nullspace(F, M)]
    # characteristic 2: brute force over the (tiny) algebra
    nil = [x for x in A.elements() if A.is_nilpotent(x)]
    rad = []
    for x in nil:
        if all(A.is_nilpotent(A.mul(x, y)) for y in A.elements()):
            rad.append(list(x))
    return [tuple(v) for v in residue_rowreduce(F, rad)[0]]


def _radical_enlarge(order: Order, prime: PrimeIdeal) -> Order | None:
    """Right order of (q*O + radical); enlarges any order that is not hereditary at q."""
    A = ResidueAlgebra(order, prime)
    rad = _radical_basis(A)
    if not rad:
        return None
    return Order(A.preimage(rad).multiplier_lattice("right"))


def _idempotent_enlarge(order: Order, prime: PrimeIdeal) -> Order | None:
    """Left order of (radical + O*e) for an idempotent lift e.

    At a hereditary-but-not-maximal prime the radical move is stationary;
    the left order of this ideal steps from the local intersection of two
    maximal orders into one of them.
    """
    A = ResidueAlgebra(order, prime)
    idem = A.first_idempotent()
    if idem is None:
        return None
    # O*e reduces to the span of the b_m * idem
    P = A.preimage(_radical_basis(A) + [A.mul(b, idem) for b in A.basis])
    return Order(P.multiplier_lattice("left"))


def _saturate_at(order: Order, prime: PrimeIdeal, target_val: int) -> Order:
    """Enlarge the order at one prime until its discriminant valuation hits the target."""
    while True:
        disc = order.reduced_discriminant()
        val = prime.valuation(disc)
        if val <= target_val:
            if val < target_val:
                raise NotAnOrder(f"saturation overshot at {prime!r}")
            return order
        for move in (_radical_enlarge, _idempotent_enlarge):
            bigger = move(order, prime)
            if bigger is not None and prime.valuation(bigger.reduced_discriminant()) < val:
                order = bigger
                break
        else:
            raise NotAnOrder(f"saturation made no progress at {prime!r}")


def _rational_maximal_rows(p: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Denominator and basis rows, in coordinates on (1, i, j, k), of the
    classical maximal order of the rational algebra."""
    if p == 2:
        return (2, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 1)])
    if p % 4 == 3:
        return (2, [(1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 2, 0), (0, 0, 0, 2)])
    return (1, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])


@lru_cache(maxsize=None)
def standard_order(alg: QuaternionAlgebra) -> Order:
    """The reference Eichler order of reduced discriminant (p).

    Over Q this is a classical maximal order: seeded from the tabulated
    basis and, where the seed is the ordinary integer span, completed by
    radical saturation at the primes sharing the surplus discriminant.
    Over L it is the same order with scalars extended to O_L.
    """
    fld = alg.field
    den, rows = _rational_maximal_rows(alg.p)
    rows = [[v for c in row for v in (c, 0)[: fld.degree]] for row in rows]
    order = Order(QuaternionLattice.from_rows(alg, rows, den))
    target = fld.integer(alg.p)
    disc = order.reduced_discriminant()
    surplus = exact_div(disc, target)
    ell = 2
    while not surplus.is_unit():
        for P in primes_above(fld, ell) if is_prime(ell) else ():
            tv = P.valuation(target)
            if P.valuation(disc) > tv:
                order = _saturate_at(order, P, tv)
        disc = order.reduced_discriminant()
        surplus = exact_div(disc, target)
        ell += 1
    if not is_associate(order.reduced_discriminant(), target):
        raise NotAnOrder(f"standard order certification failed for {alg!r}")
    return order


@lru_cache(maxsize=None)
def level_one_order(alg: QuaternionAlgebra) -> Order:
    """A maximal order of trivial reduced discriminant, when one exists.

    Exists exactly when every prime above p has even residue degree; built
    by saturating the standard order at those primes.
    """
    fld = alg.field
    plist = primes_above(fld, alg.p)
    if any(P.f % 2 == 1 for P in plist):
        raise LevelOneImpossible(
            f"some residue degree above {alg.p} is odd; the algebra is ramified there"
        )
    order = standard_order(alg)
    for P in plist:
        order = _saturate_at(order, P, 0)
    if not order.reduced_discriminant().is_unit():
        raise NotAnOrder("level-one saturation did not reach trivial discriminant")
    return order


# ---------------------------------------------------------------------------
# Unit weights and the mass formula


def unit_weight(order: Order) -> int:
    """#(O^x / O_L^x): half the number of reduced-norm-one elements.

    Every totally positive unit of O_L is a square under the narrow-class-
    number-one certificate, so scaling by units of O_L moves any unit of O
    onto one of reduced norm exactly 1, inside the ball Tr Nrd <= g.
    """
    fld = order.algebra.field
    mod = degree_module(order.lattice, fld.one)
    return norm_counts(mod, fld.degree).get((1, 0), 0)


def mass_formula(order: Order) -> Fraction:
    """2^(1-g) * |zeta_L(-1)| * prod_{q | D}(Nq - 1) * prod_{q | N}(Nq + 1).

    D is the set of finite ramified primes of the algebra, N the remaining
    primes dividing the reduced discriminant; both must be squarefree and
    supported above p.
    """
    alg = order.algebra
    fld = alg.field
    disc = order.reduced_discriminant()
    ram = {P.generator.coords(): P for P in verify_ramification(alg)}
    mass = Fraction(1, 2 ** (fld.degree - 1)) * fld.zeta_minus_one_abs
    residual = disc
    for P in ram.values():
        if not divides(P.generator, residual):
            raise NotAnOrder("ramified prime does not divide the discriminant")
        residual = exact_div(residual, P.generator)
        mass *= P.norm - 1
    for P in primes_above(fld, alg.p):
        if P.generator.coords() in ram:
            continue
        if divides(P.generator, residual):
            residual = exact_div(residual, P.generator)
            mass *= P.norm + 1
    if not residual.is_unit():
        raise NotAnOrder(f"discriminant {disc!r} is not squarefree over p")
    return mass


# ---------------------------------------------------------------------------
# Neighbors, isomorphism testing, class enumeration


def _splitting_data(order: Order, prime: PrimeIdeal):
    """An isomorphism O/qO = M_2(F) described by the action on a rank-2 module."""
    A = ResidueAlgebra(order, prime)
    F = A.F
    idem = A.first_idempotent()
    if idem is None:
        raise BadPrime(f"O/{prime!r}O has no nontrivial idempotent; prime not split in the order")
    span = [list(A.mul(e, idem)) for e in A.basis]
    V, pivots = residue_rowreduce(F, span)
    if len(V) != 2:
        raise BadPrime("idempotent module has wrong rank")

    def in_V(vec):
        # coordinates w.r.t. the reduced basis V using its pivot columns
        co = [vec[pivots[0]], vec[pivots[1]]]
        chk = [F.add(F.mul(co[0], V[0][c]), F.mul(co[1], V[1][c])) for c in range(4)]
        if list(chk) != list(vec):
            raise ArithmeticError("vector not in idempotent module")
        return co

    # phi[m] = 2x2 matrix of left multiplication by basis image e_m on V
    phi = []
    for e in A.basis:
        cols = []
        for v in V:
            cols.append(in_V(A.mul(e, tuple(v))))
        phi.append([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])
    return A, phi


def neighbors(ideal: LeftIdeal, prime: PrimeIdeal, o_r: Order | None = None) -> list[LeftIdeal]:
    """The Nq+1 left subideals of q-times-larger norm, indexed by lines of the residue plane.

    `o_r` is the right order of the ideal, built here when not given.
    """
    alg = ideal.order.algebra
    fld = alg.field
    if prime.residue_char == alg.p or alg.p % prime.residue_char == 0:
        raise BadPrime(f"{prime!r} divides the level")
    if fld.discriminant % prime.residue_char == 0:
        raise BadPrime(f"{prime!r} ramifies in the base field")
    if o_r is None:
        o_r = right_order(ideal.lattice)
    A, phi = _splitting_data(o_r, prime)
    F = A.F
    lines = [(F.one, F.zero)] + [(c, F.one) for c in F.elements()]
    out = []
    for (u, v) in lines:
        rows = []
        for r in range(2):
            rows.append([F.add(F.mul(phi[m][r][0], u), F.mul(phi[m][r][1], v)) for m in range(4)])
        null = residue_nullspace(F, rows)
        if len(null) != 2:
            raise ArithmeticError("line kernel has wrong dimension")
        J = ideal.lattice.multiply(A.preimage(null))
        norm = canonical_positive_associate(prime.generator * ideal.norm)
        out.append(LeftIdeal(J, ideal.order, norm))
    return out


def is_isomorphic(I: LeftIdeal, J: LeftIdeal) -> bool:
    """I = J x test: does the Hom module conj(J)*I hold an element of normalized norm 1?

    Scaling by units of O_L reduces the search to elements whose normalized
    norm is exactly 1, which live inside the ball Tr Q <= g.
    """
    return (1, 0) in norm_counts(hom_module(I, J), I.order.algebra.field.degree)


def _class_key(J: LeftIdeal) -> tuple:
    """An isomorphism invariant of the class of J: the (nu, count) pairs of
    the normalized form Nrd/nrd(J) on J itself up to trace isqrt(p) + 1.

    If J' = Jx then nrd(J') = nrd(J) Nrd(x) eps for a totally positive unit
    eps, which is a square u^2 under narrow class number one, so j -> j x u
    maps J onto J' and preserves the normalized form.
    """
    bound = isqrt(J.order.algebra.p) + 1
    return tuple(sorted(norm_counts(degree_module(J.lattice, J.norm), bound).items()))


@dataclass
class ClassSet:
    """A complete list of left ideal class representatives with unit weights.

    `search` holds the enumeration's work counters (candidates, buckets,
    isomorphism_tests, isomorphism_hits).
    """

    order: Order
    ideals: list[LeftIdeal]
    weights: list[int]
    aux_prime: PrimeIdeal
    mass: Fraction
    search: dict

    @property
    def size(self) -> int:
        return len(self.ideals)


def default_aux_prime(fld: FieldDescriptor, p: int) -> PrimeIdeal:
    """Smallest-norm prime of O_L away from p and the field discriminant."""
    best = None
    for ell in range(2, 100):
        if not is_prime(ell) or p % ell == 0 or fld.discriminant % ell == 0:
            continue
        for P in primes_above(fld, ell):
            if best is None or (P.norm, P.generator.key()) < (best.norm, best.generator.key()):
                best = P
        if best is not None and best.norm <= ell:
            break
    if best is None:
        raise BadPrime("no auxiliary prime available")
    return best


def ideal_classes(order: Order, aux_prime: PrimeIdeal | None = None) -> ClassSet:
    """Breadth-first enumeration over the neighbor graph, stopped by the mass identity.

    Representatives are bucketed by `_class_key`, and a candidate is tested
    with `is_isomorphic` only against its own bucket, in insertion order.
    Each representative's right order is built once, for its unit weight,
    and reused to form its neighbors.
    """
    alg = order.algebra
    fld = alg.field
    if aux_prime is None:
        aux_prime = default_aux_prime(fld, alg.p)
    target = mass_formula(order)
    start = unit_ideal(order)
    reps = [start]
    buckets = {_class_key(start): [start]}
    weights = [unit_weight(order)]
    mass = Fraction(1, weights[0])
    queue = deque([(start, order)])
    candidates = tests = hits = 0
    while mass < target and queue:
        current, o_r = queue.popleft()
        for J in neighbors(current, aux_prime, o_r):
            candidates += 1
            bucket = buckets.setdefault(_class_key(J), [])
            for R in bucket:
                tests += 1
                if is_isomorphic(J, R):
                    hits += 1
                    break
            else:  # no representative of the bucket is isomorphic to J
                bucket.append(J)
                reps.append(J)
                o_j = right_order(J.lattice)
                w = unit_weight(o_j)
                weights.append(w)
                mass += Fraction(1, w)
                queue.append((J, o_j))
                if mass > target:
                    raise MassMismatch(f"mass overshot: {mass} > {target}")
    if mass != target:
        raise MassMismatch(f"neighbor graph exhausted at mass {mass}, expected {target}")
    search = {
        "candidates": candidates,
        "buckets": len(buckets),
        "isomorphism_tests": tests,
        "isomorphism_hits": hits,
    }
    return ClassSet(order, reps, weights, aux_prime, mass, search)
