"""Lattice canonicalization, products, and multiplier orders."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatheta.fields import canonical_positive_associate, field, field_gcd, is_prime
from quatheta.lattices import QuaternionLattice, _scale_row, _structure, _z_structure, hnf_ol
from quatheta.linalg import hnf_int
from quatheta.quadmod import degree_module
from quatheta.quaternions import construct

from oracles import (
    FieldElement,
    det_generic,
    fe,
    fe_of,
    integer_rows,
    inverse_generic,
    lattice_basis,
    quaternion,
    structure_constants,
)


def _maximal_order_lattice(d, p):
    from quatheta.orders import standard_order

    return standard_order(construct(field(d), p)).lattice


def _from_elements(alg, gens):
    return QuaternionLattice.from_generators(alg, *integer_rows(alg.field.degree, gens))


def _scaled(L, k):
    """k * L for k in O_L."""
    return QuaternionLattice.from_generators(L.algebra, [_scale_row(L.algebra.field, r, k) for r in L.rows], L.den)


@pytest.mark.parametrize("d", [1, 2, 5, 13, 17])
def test_structure_matches_reference_arithmetic(d):
    """The integer structure constants equal those of quaternion products over L, order included."""
    F = field(d)
    checked = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 37, 41, 73):
        if F.discriminant % p == 0:
            continue  # p ramifies in L: no algebra
        alg = construct(F, p)
        assert _structure(alg) == structure_constants(alg), p
        checked += 1
    assert checked >= 8


def test_hnf_idempotent():
    rng = random.Random(2)
    for d, p in [(1, 11), (5, 2), (5, 11)]:
        F = field(d)
        L = _maximal_order_lattice(d, p)
        # rebuild from random O_L-combinations of the basis
        for _ in range(5):
            gens = [
                L.combine([F.integer(rng.randrange(-3, 4), rng.randrange(-3, 4) if d > 1 else 0) for _ in range(4)])
                for _ in range(6)
            ]
            try:
                M = QuaternionLattice.from_generators(L.algebra, gens, L.den)
            except ValueError:
                continue  # random combos occasionally degenerate
            M2 = QuaternionLattice.from_generators(L.algebra, M.rows, M.den)
            assert M == M2


def test_pivot_canonicalization_over_olattice():
    F = field(5)
    rows = [[-1, 2, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0]]  # sqrt5 = -1 + 2 omega in column 0
    out = hnf_ol(F, _z_structure(F, rows))
    assert out[0][:2] == [2, 1]  # the pivot normalizes to (5 + sqrt5)/2


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 5, 13, 17]), data=st.data())
def test_hnf_ol_is_the_canonical_ol_hnf(d, data):
    # the four conditions below determine the O_L-HNF of a module uniquely
    F = field(d)
    small = st.integers(-6, 6)
    rows = data.draw(st.lists(st.lists(small, min_size=8, max_size=8), min_size=1, max_size=6))
    rank = data.draw(st.integers(1, len(rows)))
    for i in range(rank, len(rows)):  # rank-deficient: O_L-combinations of the first rows
        rows[i] = [0] * 8
        for r in rows[:rank]:
            c = F.integer(data.draw(small), data.draw(small))
            rows[i] = [a + b for a, b in zip(rows[i], _scale_row(F, r, c))]
    out = hnf_ol(F, _z_structure(F, rows))
    assert hnf_int(_z_structure(F, out)) == hnf_int(_z_structure(F, rows))
    cols = [next(c for c in range(0, 8, 2) if r[c] or r[c + 1]) for r in out]
    assert cols == sorted(set(cols))
    for i, (r, c) in enumerate(zip(out, cols)):
        pivot = F.integer(r[c], r[c + 1])
        assert pivot == canonical_positive_associate(pivot)
        (alpha, _), (_, delta) = hnf_int(_z_structure(F, [[pivot.a, pivot.b]]))
        for above in out[:i]:
            assert 0 <= above[c] < alpha and 0 <= above[c + 1] < delta
    assert hnf_ol(F, _z_structure(F, out)) == out


def test_product_and_conjugate():
    L = _maximal_order_lattice(1, 11)
    assert L.multiply(L) == L
    assert L.conjugate() == L  # orders are stable under conjugation
    two = _scaled(L, field(1).integer(2))
    assert L.multiply(two) == two


def test_contains_and_coordinates():
    L = _maximal_order_lattice(1, 2)
    alg = L.algebra
    one = L.coordinates([1, 0, 0, 0], 1)
    assert [fe_of(c) for c in one] == _reference_coordinates(L, quaternion(alg, 1, 0, 0, 0))
    co = L.coordinates([1, 1, 1, 1], 2)  # (1+i+j+k)/2 is in the order at p=2
    half = quaternion(alg, *(fe(field(1), 1, 0, 2),) * 4)
    assert [fe_of(c) for c in co] == _reference_coordinates(L, half)
    rebuilt = quaternion(alg, 0, 0, 0, 0)
    for c, b in zip(co, lattice_basis(L)):
        rebuilt = rebuilt + b.scale(fe_of(c))
    assert rebuilt == half
    assert (L.combine(co), L.den) == ([1, 1, 1, 1], 2)
    with pytest.raises(ValueError):
        L.coordinates([1, 1, 1, 1], 4)  # (1+i+j+k)/4 is not


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
    A = _scaled(L, F.integer(2))
    B = _scaled(L, F.omega)  # omega * L; norm(omega) = -1 so this is all of L
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
        gens.append(quaternion(alg, *[fe(F, draw(small), draw(small) if d > 1 else 0, den) for _ in range(4)]))
    return alg, gens


def _lattice(alg, gens):
    try:
        return _from_elements(alg, gens)
    except ValueError:  # the draw spans rank < 4
        return None


def _unit_associates(F):
    return [fe(F, 1)] if F.degree == 1 else [fe(F, 1), fe(F, 0, 1), fe(F, -1, 1)]


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 5]), data=st.data())
def test_hnf_unchanged_by_row_operations(d, data):
    alg, gens = data.draw(generator_sets(d))
    L = _lattice(alg, gens)
    assume(L is not None)
    F = alg.field
    i, j = data.draw(st.lists(st.integers(0, len(gens) - 1), min_size=2, max_size=2, unique=True))
    c = fe(F, data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)) if d > 1 else 0)
    u = data.draw(st.sampled_from(_unit_associates(F)))
    added = list(gens)
    added[i] = added[i] + added[j].scale(c)  # unimodular: row_i += c row_j
    added[j] = added[j].scale(u)  # and a unit multiple of row_j
    for other in (data.draw(st.permutations(gens)), added, gens + [gens[i]], lattice_basis(L)):
        assert _from_elements(alg, other) == L
    assert QuaternionLattice.from_generators(alg, L.rows, L.den) == L
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
    products = [x * y for x in lattice_basis(L1) for y in lattice_basis(L2)]
    assert L1.multiply(L2) == _from_elements(alg, products)
    assert L1.conjugate() == _from_elements(alg, [x.conjugate() for x in lattice_basis(L1)])
    conj_products = [x.conjugate() * y for x in lattice_basis(L1) for y in lattice_basis(L2)]
    assert L1.conjugate_multiply(L2) == _from_elements(alg, conj_products)


@st.composite
def full_rank_generator_sets(draw, d):
    """An algebra over Q(sqrt d) and 4 to 6 random elements spanning a full lattice.

    The first four are triangular over (1, i, j, k) with nonzero diagonal.
    """
    F = field(d)
    alg = construct(F, 11)
    small = st.integers(-4, 4)
    den = draw(st.sampled_from([1, 1, 2, 3]))

    def coeff(nonzero=False):
        c = fe(F, draw(small), draw(small) if d > 1 else 0, den)
        return fe(F, draw(st.integers(1, 4)), 0, den) if nonzero and c.is_zero() else c

    gens = [quaternion(alg, *[fe(F, 0) if c < m else coeff(c == m) for c in range(4)]) for m in range(4)]
    gens += [quaternion(alg, *[coeff() for _ in range(4)]) for _ in range(draw(st.integers(0, 2)))]
    return alg, gens


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 5]), data=st.data())
def test_discriminant_matches_cofactor_expansion(d, data):
    """16 (ab prod pivots)^2 = -den^8 det Trd(b_r b_s), in integers, and discriminant() = 4ab prod pivots / den^4."""
    alg, gens = data.draw(full_rank_generator_sets(d))
    L = _from_elements(alg, gens)
    F, g = alg.field, alg.field.degree
    # den * b_r as quaternions with integer coordinates; den^2 Trd(b_r b_s) = Trd(r_r r_s)
    ints = [quaternion(alg, *[fe(F, *row[c : c + g]) for c in range(0, 4 * g, g)]) for row in L.rows]
    det = det_generic([[(x * y).reduced_trace().to_integer() for y in ints] for x in ints], F.zero)
    piv = F.one
    for r, row in enumerate(L.mat):
        piv = piv * row[r]
    ab = alg.a * alg.b
    assert 16 * (ab * piv) ** 2 == -det
    x, q = 4 * ab * piv, L.den ** 4
    if x.a % q == 0 and x.b % q == 0:
        assert L.discriminant() == F.integer(x.a // q, x.b // q)
    else:
        with pytest.raises(ValueError):
            L.discriminant()


# coefficients of a box whose reduced norms generate the norm ideal of a lattice
_BOX = {1: [(-1,), (0,), (1,)], 5: [(0, 0), (1, 0), (0, 1), (1, 1)]}


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 5]), data=st.data())
def test_norm_gcd_matches_box_search(d, data):
    """The gcd of the reduced norms over the box is the one normalizer that
    `degree_module`, the norm certificate, accepts: a proper multiple makes
    the form non-integral and a proper divisor leaves it content."""
    alg, gens = data.draw(generator_sets(d, integral=True))
    L = _lattice(alg, gens)
    assume(L is not None)
    F = alg.field
    g = F.zero
    for combo in itertools.product(_BOX[d], repeat=4):
        x = quaternion(alg, 0, 0, 0, 0)
        for c, b in zip(combo, lattice_basis(L)):
            x = x + b.scale(fe(F, *c))
        g = field_gcd(g, x.reduced_norm().to_integer())
    assert degree_module(L, g).normalizer == g
    with pytest.raises(ValueError):
        degree_module(L, 2 * g)
    if not g.is_unit():
        with pytest.raises(ValueError):
            degree_module(L, F.one)


# ---------------------------------------------------------------------------
# Integer right orders and coordinates against reference arithmetic over L:
# inverse of the basis matrix, and quaternion inverses b^-1.


def _reference_coordinates(L, q):
    """Coordinates of q through the inverse of the basis matrix over L (may be non-integral)."""
    F = L.algebra.field
    basis = [[FieldElement.make(e, L.den) for e in row] for row in L.mat]
    inv = inverse_generic(basis, fe(F, 0), fe(F, 1))
    v = q.coords()
    return [sum((v[r] * inv[r][c] for r in range(4)), start=fe(F, 0)) for c in range(4)]


def _coordinates(L, q):
    """The program's coordinates of the quaternion q in L."""
    (row,), den = integer_rows(L.algebra.field.degree, [q])
    return L.coordinates(row, den)


def _reference_multiplier_lattice(L, side):
    out = None
    bs = lattice_basis(L)
    for b in bs:
        binv = b.conjugate().scale(1 / b.reduced_norm())
        gens = [r * binv for r in bs] if side == "left" else [binv * r for r in bs]
        piece = _from_elements(L.algebra, gens)
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
        for b in lattice_basis(L):  # integral in the left order
            co = _coordinates(O.lattice, b)
            assert [fe_of(c) for c in co] == _reference_coordinates(O.lattice, b)


def test_structure_constants_match_reference():
    from quatheta.orders import standard_order

    for p in filter(is_prime, range(2, 100)):
        O = standard_order(construct(field(1), p))
        bs = lattice_basis(O.lattice)
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
        co = _coordinates(L, q)
        assert [fe_of(c) for c in co] == want
        row, g = L.combine(co), alg.field.degree  # combine inverts coordinates
        got = [FieldElement.make(alg.field.integer(*row[c : c + g]), L.den) for c in range(0, 4 * g, g)]
        assert got == list(q.coords())
    else:
        with pytest.raises(ValueError):
            _coordinates(L, q)
