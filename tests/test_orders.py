"""Orders, discriminants, ideals, neighbors, classes, weights, masses."""

from collections import deque
from fractions import Fraction
from math import isqrt

import pytest

from quatheta.errors import BadPrime, LevelOneImpossible
from quatheta.fields import (
    canonical_positive_associate,
    enumerate_totally_positive,
    field,
    is_associate,
    is_prime,
    primes_above,
)
from quatheta.lattices import QuaternionLattice
from quatheta.orders import (
    LeftIdeal,
    Order,
    _class_key,
    default_aux_prime,
    ideal_classes,
    ideal_norm,
    is_isomorphic,
    left_order,
    level_one_order,
    mass_formula,
    neighbors,
    right_order,
    standard_order,
    unit_ideal,
    unit_weight,
)
from quatheta.quadmod import degree_module, norm_gcd, trace_form
from quatheta.quaternions import construct
from quatheta.shortvec import short_vectors

from oracles import det_generic


def test_standard_order_discriminants():
    for d, p, want in [(1, 11, 11), (1, 2, 2), (5, 2, 2), (1, 23, 23), (1, 37, 37), (1, 17, 17)]:
        O = standard_order(construct(field(d), p))
        disc = O.reduced_discriminant()
        assert is_associate(disc, field(d).integer(want)), (d, p, disc)


def test_integer_quaternion_lattice_discriminant():
    # Z<1,i,j,k> inside the p=2 algebra has reduced discriminant 4
    alg = construct(field(1), 2)
    gens = [alg.element(1, 0, 0, 0), alg.element(0, 1, 0, 0), alg.element(0, 0, 1, 0), alg.element(0, 0, 0, 1)]
    O = Order(QuaternionLattice.from_generators(alg, gens))
    assert O.reduced_discriminant().coords() == (4, 0)


def test_left_right_order_examples():
    F = field(1)
    O = standard_order(construct(F, 11))
    assert left_order(O.lattice).lattice == O.lattice
    # conjugation by an invertible element preserves the discriminant
    J = neighbors(unit_ideal(O), primes_above(F, 2)[0])[0]
    assert is_associate(right_order(J.lattice).reduced_discriminant(), F.integer(11))


def test_ideal_norms():
    F = field(1)
    O = standard_order(construct(F, 11))
    assert ideal_norm(O.lattice).coords() == (1, 0)
    assert ideal_norm(O.lattice.scale(F.element(2))).coords() == (4, 0)
    J = neighbors(unit_ideal(O), primes_above(F, 3)[0])[0]
    assert ideal_norm(J.lattice).coords() == (3, 0)


def test_neighbor_counts():
    F, F5 = field(1), field(5)
    O = standard_order(construct(F, 11))
    assert len(neighbors(unit_ideal(O), primes_above(F, 2)[0])) == 3
    O5 = standard_order(construct(F5, 11))
    assert len(neighbors(unit_ideal(O5), primes_above(F5, 2)[0])) == 5  # P1(F_4)
    with pytest.raises(BadPrime):
        neighbors(unit_ideal(O), primes_above(F, 11)[0])
    with pytest.raises(BadPrime):
        neighbors(unit_ideal(O5), primes_above(F5, 5)[0])


def test_neighbors_backtrack_unique():
    F = field(1)
    O = standard_order(construct(F, 11))
    P2 = primes_above(F, 2)[0]
    start = unit_ideal(O)
    doubled = start.lattice.scale(F.element(2))
    for J in neighbors(start, P2):
        back = [K for K in neighbors(J, P2) if K.lattice == doubled]
        assert len(back) == 1


def test_is_isomorphic_basics():
    F = field(1)
    O = standard_order(construct(F, 11))
    I = unit_ideal(O)
    assert is_isomorphic(I, I)
    # right multiplication by a lattice element of nonzero norm
    x = O.basis()[2]
    lat = I.lattice.right_multiply(x)
    Jx = LeftIdeal(lat, O, ideal_norm(lat, O))
    assert is_isomorphic(I, Jx)


def test_class_sets_over_q():
    F = field(1)
    cs = ideal_classes(standard_order(construct(F, 11)))
    assert cs.size == 2
    assert sorted(cs.weights) == [2, 3]
    assert cs.mass == Fraction(5, 6)
    assert not is_isomorphic(cs.ideals[0], cs.ideals[1])
    cs2 = ideal_classes(standard_order(construct(F, 2)))
    assert cs2.size == 1 and cs2.weights == [12]


def test_class_set_independent_of_aux_prime():
    F = field(1)
    O = standard_order(construct(F, 11))
    a = ideal_classes(O, primes_above(F, 2)[0])
    b = ideal_classes(O, primes_above(F, 3)[0])
    assert a.size == b.size
    assert sorted(a.weights) == sorted(b.weights)
    for I in a.ideals:
        assert sum(1 for J in b.ideals if is_isomorphic(I, J)) == 1


def test_unit_weights():
    F, F5 = field(1), field(5)
    assert unit_weight(standard_order(construct(F, 2))) == 12  # Hurwitz
    assert unit_weight(standard_order(construct(F5, 2))) == 12
    assert unit_weight(level_one_order(construct(F5, 2))) == 60  # icosians


def test_mass_formula_values():
    F, F5 = field(1), field(5)
    assert mass_formula(standard_order(construct(F, 11))) == Fraction(5, 6)
    assert mass_formula(standard_order(construct(F5, 2))) == Fraction(1, 12)
    assert mass_formula(level_one_order(construct(F5, 2))) == Fraction(1, 60)
    assert mass_formula(standard_order(construct(F5, 11))) == Fraction(5, 3)


def test_mass_identity_for_enumerated_classes():
    for d, p, mode in [(1, 11, "level_p"), (1, 23, "level_p"), (5, 2, "level_p"), (5, 2, "level_one")]:
        alg = construct(field(d), p)
        O = standard_order(alg) if mode == "level_p" else level_one_order(alg)
        cs = ideal_classes(O)
        assert sum(Fraction(1, w) for w in cs.weights) == mass_formula(O)


def test_level_one_order():
    F5 = field(5)
    O = level_one_order(construct(F5, 2))
    assert O.reduced_discriminant().is_unit()
    assert standard_order(construct(F5, 2)).lattice.contains_lattice(O.lattice) is False
    assert O.lattice.contains_lattice(standard_order(construct(F5, 2)).lattice)
    O3 = level_one_order(construct(F5, 3))
    assert O3.reduced_discriminant().is_unit()
    with pytest.raises(LevelOneImpossible):
        level_one_order(construct(F5, 11))
    with pytest.raises(LevelOneImpossible):
        level_one_order(construct(field(1), 11))


def test_neighbor_graph_regular_and_closed():
    # every neighbor is a sublattice with the right norm and left order
    F = field(1)
    O = standard_order(construct(F, 11))
    P3 = primes_above(F, 3)[0]
    nb = neighbors(unit_ideal(O), P3)
    assert len(nb) == 4
    for J in nb:
        assert O.lattice.contains_lattice(J.lattice)
        assert left_order(J.lattice).lattice == O.lattice
        assert is_associate(J.norm, F.integer(3))


def test_other_quadratic_fields():
    # d=13: 3 splits, level (3) Eichler order
    O = standard_order(construct(field(13), 3))
    assert mass_formula(O) == Fraction(1, 3)
    cs = ideal_classes(O)
    assert cs.size == 2 and cs.weights == [6, 6]
    # d=2: 3 inert, maximal order of trivial discriminant exists
    O2 = level_one_order(construct(field(2), 3))
    assert O2.reduced_discriminant().is_unit()
    assert mass_formula(O2) == Fraction(1, 24)
    # saturation path over a quadratic field: 13 = 5 mod 8
    O3 = standard_order(construct(field(5), 13))
    assert is_associate(O3.reduced_discriminant(), field(5).integer(13))
    assert mass_formula(O3) == Fraction(17, 6)
    # d=17: 3 inert, level (3)
    cs17 = ideal_classes(standard_order(construct(field(17), 3)))
    assert cs17.size == 3 and sorted(cs17.weights) == [1, 2, 6]
    assert cs17.mass == Fraction(5, 3)


def test_is_isomorphic_equivalence_relation():
    F = field(1)
    O = standard_order(construct(F, 11))
    P2 = primes_above(F, 2)[0]
    sample = [unit_ideal(O)] + neighbors(unit_ideal(O), P2)
    for J in list(sample):
        sample.extend(neighbors(J, P2)[:1])
    for I in sample:
        assert is_isomorphic(I, I)
    for I in sample:
        for J in sample:
            assert is_isomorphic(I, J) == is_isomorphic(J, I)
    for I in sample:
        for J in sample:
            for K in sample:
                if is_isomorphic(I, J) and is_isomorphic(J, K):
                    assert is_isomorphic(I, K)


def test_default_aux_prime():
    assert default_aux_prime(field(1), 11).generator.coords() == (2, 0)
    assert default_aux_prime(field(1), 2).generator.coords() == (3, 0)
    assert default_aux_prime(field(5), 2).norm == 9  # (3) inert; (2) is the level
    assert default_aux_prime(field(5), 11).norm == 4


def test_class_numbers_match_closed_formula():
    from oracles import eichler_class_number

    for p in (5, 7, 11, 13, 17, 23, 37, 67, 227, 311, 503):
        cs = ideal_classes(standard_order(construct(field(1), p)))
        assert cs.size == eichler_class_number(p), p


# ---------------------------------------------------------------------------
# Invariant buckets


def _right_multiples(I):
    """I*x for the first few x of the right order with Tr Nrd(x) <= 4g that are not units.

    Short x keep I*x reduced enough for a quick search; the first ones
    include elements of every small norm.
    """
    O = right_order(I.lattice)
    fld = O.algebra.field
    mod = degree_module(O.lattice, fld.one)
    xs = [mod.element(e[:-1]) for e in short_vectors(trace_form(mod), 2 * 4 * fld.degree)]
    xs = [x for x in xs if mod.value(x) != fld.one]
    for x in xs[:6]:
        norm = canonical_positive_associate(I.norm * x.reduced_norm().to_integer())
        yield LeftIdeal(I.lattice.right_multiply(x), I.order, norm)


@pytest.mark.parametrize("d,p", [(1, 67), (5, 11)])
def test_class_key_is_an_isomorphism_invariant(d, p):
    cs = ideal_classes(standard_order(construct(field(d), p)))
    keys = [_class_key(I) for I in cs.ideals]
    for I, key in zip(cs.ideals, keys):
        for J in _right_multiples(I):
            assert is_isomorphic(J, I)
            assert _class_key(J) == key
    assert len(set(keys)) > 1  # the key does separate classes


def _full_scan_classes(order):
    """The class enumeration before bucketing: each candidate against every representative."""
    aux = default_aux_prime(order.algebra.field, order.algebra.p)
    target = mass_formula(order)
    reps, weights = [unit_ideal(order)], [unit_weight(order)]
    mass = Fraction(1, weights[0])
    queue = deque(reps)
    while mass < target and queue:
        for J in neighbors(queue.popleft(), aux):
            if any(is_isomorphic(J, R) for R in reps):
                continue
            reps.append(J)
            weights.append(unit_weight(right_order(J.lattice)))
            mass += Fraction(1, weights[-1])
            queue.append(J)
    return reps, weights


@pytest.mark.parametrize("d,p", [(1, 227), (2, 7), (17, 5), (5, 19)])
def test_bucketed_classes_equal_full_scan(d, p):
    O = standard_order(construct(field(d), p))
    cs = ideal_classes(O)
    reps, weights = _full_scan_classes(O)
    assert [(I.lattice, I.norm) for I in cs.ideals] == [(I.lattice, I.norm) for I in reps]
    assert cs.weights == weights
    search = cs.search
    # a candidate is either isomorphic to a representative or a new one
    assert search["isomorphism_hits"] + cs.size - 1 == search["candidates"]
    assert search["buckets"] <= cs.size
    assert search["isomorphism_hits"] <= search["isomorphism_tests"]


def test_class_search_counts_at_227():
    cs = ideal_classes(standard_order(construct(field(1), 227)))
    assert cs.search == {"candidates": 45, "buckets": 15, "isomorphism_tests": 36, "isomorphism_hits": 26}


# ---------------------------------------------------------------------------
# Discriminants, valuations and ideal norms against the FieldElement versions
# they replaced: the pairing determinant and its ideal square root, the
# valuation by FieldElement division, and the determinant-ratio norm.


def _reference_pairing_det(lat):
    bs = lat.basis()
    return det_generic([[(x * y).reduced_trace() for y in bs] for x in bs], lat.algebra.field.element(0))


def _reference_ideal_sqrt(det):
    """Canonical totally positive s with (s)^2 = (det), if the ideal is a square."""
    fld = det.field
    if fld.degree == 1:
        n = abs(det.a)
        s = isqrt(n)
        return fld.integer(s) if s * s == n else None
    target = abs(det.norm())
    ns = isqrt(target)
    if ns * ns != target:
        return None
    bound = 2 * isqrt(ns) + 2
    while bound < 16 * (ns + 2):
        for s in enumerate_totally_positive(fld, bound)[1:]:
            if s.norm() == ns and is_associate(s * s, det):
                return s
        bound *= 2
    return None


def _reference_discriminant(order):
    return _reference_ideal_sqrt(_reference_pairing_det(order.lattice).to_integer())


def _reference_valuation(P, x):
    v = 0
    y = x.to_element()
    while True:
        if not y.is_integral() or P.reduce_coords(y.to_integer()) != (0, 0):
            return v
        y = y / P.generator.to_element()
        if y.is_integral():
            v += 1
        else:
            return v


def _reference_ideal_norm(lat, order):
    ratio = _reference_pairing_det(lat) / _reference_pairing_det(order.lattice)
    n = ratio.norm() if lat.algebra.field.degree == 2 else ratio.coords()[0]
    assert n.denominator == 1
    t = isqrt(isqrt(abs(n.numerator)))
    assert t ** 4 == abs(n.numerator)
    return norm_gcd(lat, t)


def _check_order_against_reference(O):
    disc = O.reduced_discriminant()
    assert disc == _reference_discriminant(O)
    F = O.algebra.field
    for ell in (2, 3, 5, 7, 11, O.algebra.p):
        for P in primes_above(F, ell):
            assert P.valuation(disc) == _reference_valuation(P, disc)


def _check_classes_against_reference(O):
    _check_order_against_reference(O)
    for I in ideal_classes(O).ideals:
        O_r = right_order(I.lattice)
        _check_order_against_reference(O_r)
        assert ideal_norm(I.lattice, O) == _reference_ideal_norm(I.lattice, O) == I.norm
        assert ideal_norm(I.lattice) == _reference_ideal_norm(I.lattice, O_r) == I.norm


def test_discriminants_and_norms_match_reference_over_q():
    for p in filter(is_prime, range(2, 200)):
        _check_classes_against_reference(standard_order(construct(field(1), p)))


@pytest.mark.parametrize(
    "d,p,level_one",
    [(2, 7, False), (2, 3, True), (5, 2, False), (5, 2, True), (5, 3, True), (5, 11, False), (5, 19, False),
     (13, 3, False), (17, 5, False), (17, 3, False)],
)
def test_discriminants_and_norms_match_reference_over_quadratic_fields(d, p, level_one):
    alg = construct(field(d), p)
    _check_classes_against_reference(level_one_order(alg) if level_one else standard_order(alg))


@pytest.mark.parametrize("d", [1, 2, 5, 13, 17])
def test_valuation_matches_reference(d):
    F = field(d)
    for ell in (2, 3, 5, 7, 13):
        for P in primes_above(F, ell):
            for a in range(-12, 13):
                for b in range(-12, 13) if d > 1 else (0,):
                    x = F.integer(a, b)
                    for k in range(3):
                        if not x.is_zero():
                            assert P.valuation(x) == _reference_valuation(P, x)
                        x = x * P.generator
