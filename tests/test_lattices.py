"""Lattice canonicalization, products, and multiplier orders."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatheta.fields import FieldElement, canonical_positive_associate, field, field_gcd, is_prime
from quatheta.lattices import QuaternionLattice, hnf_ol
from quatheta.quadmod import norm_gcd
from quatheta.quaternions import construct

from oracles import det_generic, inverse_generic


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
    assert [c.to_element() for c in co] == _reference_coordinates(L, half)
    rebuilt = alg.zero
    for c, b in zip(co, L.basis()):
        rebuilt = rebuilt + b.scale(c.to_element())
    assert rebuilt == half
    quarter = alg.element(*(field(1).element(1, 0, 4),) * 4)
    assert not L.contains(quarter)
    with pytest.raises(ValueError):
        L.coordinates(quarter)


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


# ---------------------------------------------------------------------------
# Integer right orders and coordinates against the FieldElement versions they
# replaced: inverse of the basis matrix, and quaternion inverses b^-1.


def _reference_coordinates(L, q):
    """Coordinates of q through the inverse of the basis matrix over L (may be non-integral)."""
    F = L.algebra.field
    basis = [[FieldElement.make(e, L.den) for e in row] for row in L.mat]
    inv = inverse_generic(basis, F.element(0), F.element(1))
    v = q.coords()
    return [sum((v[r] * inv[r][c] for r in range(4)), start=F.element(0)) for c in range(4)]


def _reference_multiplier_lattice(L, side):
    out = None
    for b in L.basis():
        binv = b.conjugate().scale(1 / b.reduced_norm())
        gens = [r * binv for r in L.basis()] if side == "left" else [binv * r for r in L.basis()]
        piece = QuaternionLattice.from_generators(L.algebra, gens)
        out = piece if out is None else out.intersect(piece)
    return out


@pytest.mark.parametrize("d,p", [(1, 11), (1, 37), (1, 67), (5, 11), (5, 19)])
def test_multiplier_lattice_and_coordinates_match_reference(d, p):
    from quatheta.orders import ideal_classes, standard_order

    O = standard_order(construct(field(d), p))
    for I in ideal_classes(O).ideals:
        L = I.lattice
        for side in ("left", "right"):
            M = L.multiplier_lattice(side)
            assert M == _reference_multiplier_lattice(L, side)
        assert L.multiplier_lattice("left") == O.lattice
        for b in L.basis():  # integral in the left order
            co = O.lattice.coordinates(b)
            assert [c.to_element() for c in co] == _reference_coordinates(O.lattice, b)


def test_structure_constants_match_reference():
    from quatheta.orders import standard_order

    for p in filter(is_prime, range(2, 100)):
        O = standard_order(construct(field(1), p))
        bs = O.basis()
        want = [[tuple(c.to_integer() for c in _reference_coordinates(O.lattice, x * y)) for y in bs] for x in bs]
        assert O.structure_constants() == want, p


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 5]), data=st.data())
def test_coordinates_match_reference_or_raise(d, data):
    alg, gens = data.draw(generator_sets(d))
    L = _lattice(alg, gens)
    assume(L is not None)
    q = data.draw(generator_sets(d))[1][0]
    want = _reference_coordinates(L, q)
    if all(c.is_integral() for c in want):
        assert [c.to_element() for c in L.coordinates(q)] == want
    else:
        with pytest.raises(ValueError):
            L.coordinates(q)
