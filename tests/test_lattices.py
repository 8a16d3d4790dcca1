"""Lattice canonicalization, products, and multiplier orders."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatheta.fields import canonical_positive_associate, field, field_gcd
from quatheta.lattices import QuaternionLattice, hnf_ol
from quatheta.linalg import det_generic
from quatheta.quadmod import norm_gcd
from quatheta.quaternions import construct


def _maximal_order_lattice(d, p):
    from quatheta.orders import standard_order

    return standard_order(construct(field(d), p)).lattice


def test_hnf_idempotent():
    rng = random.Random(2)
    for d, p in [(1, 11), (5, 2), (5, 11)]:
        F = field(d)
        L = _maximal_order_lattice(d, p)
        # rebuild from shuffled integer combinations of the basis
        bs = L.basis()
        for _ in range(5):
            gens = []
            for _ in range(6):
                q = None
                for b in bs:
                    c = F.element(rng.randrange(-3, 4), rng.randrange(-3, 4) if d > 1 else 0)
                    t = b.scale(c)
                    q = t if q is None else q + t
                gens.append(q)
            try:
                M = QuaternionLattice.from_generators(L.algebra, gens)
            except ValueError:
                continue  # random combos occasionally degenerate
            M2 = QuaternionLattice.from_generators(L.algebra, M.basis())
            assert M == M2


def test_pivot_canonicalization_over_olattice():
    F = field(5)
    rows = [[F.integer(0)] * 4 for _ in range(2)]
    rows[0][0] = F.integer(-1, 2)  # sqrt5: pivot normalizes to (2,1)
    rows[1][1] = F.integer(1)
    out = hnf_ol(F, rows)
    assert out[0][0].coords() == (2, 1)


def test_product_and_conjugate():
    L = _maximal_order_lattice(1, 11)
    assert L.multiply(L) == L
    assert L.conjugate() == L  # orders are stable under conjugation
    two = L.scale(field(1).element(2))
    assert L.multiply(two) == two


def test_contains_and_coordinates():
    L = _maximal_order_lattice(1, 2)
    alg = L.algebra
    assert L.contains(alg.one)
    half = alg.element(*(field(1).element(1, 0, 2),) * 4)
    assert L.contains(half)  # (1+i+j+k)/2 is in the order at p=2
    co = L.coordinates(half)
    assert all(c.is_integral() for c in co)


def test_multiplier_orders_of_ideal():
    from quatheta.fields import primes_above
    from quatheta.orders import Order, neighbors, standard_order, unit_ideal

    O = standard_order(construct(field(1), 11))
    J = neighbors(unit_ideal(O), primes_above(field(1), 2)[0])[0]
    left = Order(J.lattice.multiplier_lattice("left"))
    right = Order(J.lattice.multiplier_lattice("right"))
    assert left.lattice == O.lattice
    assert left.reduced_discriminant() == right.reduced_discriminant()


def test_intersection():
    L = _maximal_order_lattice(5, 2)
    F = field(5)
    A = L.scale(F.element(2))
    B = L.scale(F.element(0, 1))  # omega * L; norm(omega) = -1 so this is all of L
    assert L.intersect(A) == A
    assert L.intersect(B) == L


# ---------------------------------------------------------------------------
# Properties of the integer-row HNF, over Q and Q(sqrt5)


@st.composite
def generator_sets(draw, d, integral=False):
    """An algebra over Q(sqrt d) and 4 to 6 random elements of it."""
    F = field(d)
    alg = construct(F, 11)
    small = st.integers(-4, 4)
    gens = []
    for _ in range(draw(st.integers(4, 6))):
        den = 1 if integral else draw(st.integers(1, 3))
        gens.append(alg.element(*[F.element(draw(small), draw(small) if d > 1 else 0, den) for _ in range(4)]))
    return alg, gens


def _lattice(alg, gens):
    try:
        return QuaternionLattice.from_generators(alg, gens)
    except ValueError:  # the draw spans rank < 4
        return None


def _unit_associates(F):
    return [F.element(1)] if F.degree == 1 else [F.element(1), F.element(0, 1), F.element(-1, 1)]


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 5]), data=st.data())
def test_hnf_unchanged_by_row_operations(d, data):
    alg, gens = data.draw(generator_sets(d))
    L = _lattice(alg, gens)
    assume(L is not None)
    F = alg.field
    i, j = data.draw(st.lists(st.integers(0, len(gens) - 1), min_size=2, max_size=2, unique=True))
    c = F.element(data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)) if d > 1 else 0)
    u = data.draw(st.sampled_from(_unit_associates(F)))
    added = list(gens)
    added[i] = added[i] + added[j].scale(c)  # unimodular: row_i += c row_j
    added[j] = added[j].scale(u)  # and a unit multiple of row_j
    for other in (data.draw(st.permutations(gens)), added, gens + [gens[i]], L.basis()):
        assert QuaternionLattice.from_generators(alg, other) == L
    # canonical shape: upper triangular with canonical pivots
    for r, row in enumerate(L.mat):
        assert all(e.is_zero() for e in row[:r])
        assert canonical_positive_associate(row[r]) == row[r]


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 5]), data=st.data())
def test_multiply_and_conjugate_match_quaternion_products(d, data):
    alg, gens1 = data.draw(generator_sets(d))
    _, gens2 = data.draw(generator_sets(d))
    L1, L2 = _lattice(alg, gens1), _lattice(alg, gens2)
    assume(L1 is not None and L2 is not None)
    products = [x * y for x in L1.basis() for y in L2.basis()]
    assert L1.multiply(L2) == QuaternionLattice.from_generators(alg, products)
    assert L1.conjugate() == QuaternionLattice.from_generators(alg, [x.conjugate() for x in L1.basis()])


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 5]), data=st.data())
def test_det_pairing_matches_cofactor_expansion(d, data):
    alg, gens = data.draw(generator_sets(d))
    L = _lattice(alg, gens)
    assume(L is not None)
    bs = L.basis()
    pairing = [[(x * y).reduced_trace() for y in bs] for x in bs]
    assert L.det_pairing() == det_generic(pairing, alg.field.element(0))


# coefficients of the box the norm gcd used to search before it was read off the Gram
_BOX = {1: [(-1,), (0,), (1,)], 5: [(0, 0), (1, 0), (0, 1), (1, 1)]}


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 5]), data=st.data())
def test_norm_gcd_matches_box_search(d, data):
    alg, gens = data.draw(generator_sets(d, integral=True))
    L = _lattice(alg, gens)
    assume(L is not None)
    F = alg.field
    g = F.zero
    for combo in itertools.product(_BOX[d], repeat=4):
        x = alg.zero
        for c, b in zip(combo, L.basis()):
            x = x + b.scale(F.element(*c))
        g = field_gcd(g, x.reduced_norm().to_integer())
    t = abs(g.norm())
    assert norm_gcd(L, t) == g
    with pytest.raises(ValueError):
        norm_gcd(L, t + 1)  # the determinant certificate is still checked
