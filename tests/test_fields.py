"""Field arithmetic: exactness, total positivity, units, enumeration, splitting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatheta.errors import RamifiedPrime, UnsupportedField
from quatheta.fields import (
    canonical_positive_associate,
    divides,
    enumerate_totally_positive,
    euclid_divmod,
    exact_div,
    field,
    field_gcd,
    field_xgcd,
    is_associate,
    prime_splitting,
    primes_above,
    totally_positive_units_mod_squares,
)

from oracles import tp_box_scan


def test_golden_ratio_norm_trace():
    F = field(5)
    w = F.omega
    assert w.norm() == -1
    assert w.trace() == 1


def test_rational_norm_trace():
    F = field(1)
    assert F.integer(7).norm() == 7
    assert F.integer(7).trace() == 7


def test_norm_three_plus_sqrt5():
    # 3 + sqrt(5) = 2 + 2*omega; (3+sqrt5)(3-sqrt5) = 4
    F = field(5)
    x = F.integer(2, 2)
    assert x.norm() == 4


def test_field_allowlist():
    with pytest.raises(UnsupportedField):
        field(3)
    with pytest.raises(UnsupportedField):
        field(6)


def test_totally_positive_examples():
    F = field(5)
    assert F.integer(2, 2).is_totally_positive()  # 3 + sqrt5
    assert not F.integer(-1, 2).is_totally_positive()  # sqrt5
    assert not F.zero.is_totally_positive()


def test_totally_positive_closed_under_ops():
    rng = random.Random(7)
    F = field(5)
    tp = [x for x in enumerate_totally_positive(F, 12)[1:]]
    for _ in range(100):
        x, y = rng.choice(tp), rng.choice(tp)
        assert (x + y).is_totally_positive()
        assert (x * y).is_totally_positive()


def test_norm_multiplicative_trace_additive():
    rng = random.Random(3)
    for d in (1, 2, 5, 13, 17):
        F = field(d)
        for _ in range(150):
            x = F.integer(rng.randrange(-9, 10), rng.randrange(-9, 10) if d > 1 else 0)
            y = F.integer(rng.randrange(-9, 10), rng.randrange(-9, 10) if d > 1 else 0)
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x + y).trace() == x.trace() + y.trace()


def test_units_mod_squares_trivial_with_witness():
    for d in (1, 2, 5, 13, 17):
        F = field(d)
        units = totally_positive_units_mod_squares(F)
        assert units == frozenset({F.one})
        if d > 1:
            assert F.fundamental_unit.norm() == -1


def test_enumerate_rational():
    F = field(1)
    assert [x.coords() for x in enumerate_totally_positive(F, 3)] == [
        (0, 0), (1, 0), (2, 0), (3, 0),
    ]


def test_enumerate_sqrt5_small():
    F = field(5)
    assert [x.coords() for x in enumerate_totally_positive(F, 2)] == [(0, 0), (1, 0)]


def test_enumerate_sqrt5_bound_four():
    # trace-3 pair (3+sqrt5)/2 = (1,1) and (3-sqrt5)/2 = (2,-1), ordered by
    # the canonical key (trace, then coordinate a)
    F = field(5)
    got = [x.coords() for x in enumerate_totally_positive(F, 4)]
    assert got == [(0, 0), (1, 0), (1, 1), (2, -1), (2, 0)]


@pytest.mark.parametrize("d", [1, 2, 5, 13, 17])
@pytest.mark.parametrize("bound", [0, 1, 5, 12, 20])
def test_enumerate_against_box_scan(d, bound):
    F = field(d)
    got = [x.coords() for x in enumerate_totally_positive(F, bound)]
    want = [x.coords() for x in tp_box_scan(F, bound)]
    assert got == want


def test_prime_splitting_sqrt5():
    F = field(5)
    split = prime_splitting(F, 11)
    assert [f for f, _ in split] == [1, 1]
    for _, gen in split:
        assert gen.norm() == 11
        assert gen.is_totally_positive()
    inert = prime_splitting(F, 2)
    assert [(f, g.coords()) for f, g in inert] == [(2, (2, 0))]
    with pytest.raises(RamifiedPrime):
        prime_splitting(F, 5)


def test_prime_splitting_two_in_sqrt17():
    # 17 = 1 mod 8, so 2 splits
    F = field(17)
    split = prime_splitting(F, 2)
    assert [f for f, _ in split] == [1, 1]
    assert all(g.norm() == 2 for _, g in split)


def test_canonical_generator_deterministic():
    F = field(5)
    sqrt5 = F.integer(-1, 2)
    g = canonical_positive_associate(sqrt5)
    assert g.coords() == (2, 1)  # (5+sqrt5)/2, trace 5, minimal key
    assert g.is_totally_positive()
    # associates all map to the same canonical element
    eps = F.fundamental_unit
    for u in (eps, eps * eps, -eps):
        assert canonical_positive_associate(sqrt5 * u) == g


def test_gcd_and_xgcd():
    rng = random.Random(11)
    for d in (1, 2, 5, 13, 17):
        F = field(d)
        for _ in range(60):
            x = F.integer(rng.randrange(-20, 21), rng.randrange(-20, 21) if d > 1 else 0)
            y = F.integer(rng.randrange(-20, 21), rng.randrange(-20, 21) if d > 1 else 0)
            if x.is_zero() and y.is_zero():
                continue
            g, s, t = field_xgcd(x, y)
            assert s * x + t * y == g
            assert field_gcd(x, y) == g
            if not x.is_zero():
                assert (x.to_element() / g.to_element()).is_integral()
            if not y.is_zero():
                assert (y.to_element() / g.to_element()).is_integral()


def _euclid_reference(x, y):
    """The quotient search in FieldElement arithmetic: floor of x/y plus a grid
    of offsets, minimizing |norm(r)|, then the keys of r and of q."""
    F = x.field
    qa, qb = (x.to_element() / y.to_element()).coords()
    fa, fb = qa.numerator // qa.denominator, qb.numerator // qb.denominator
    for width in (2, 4):
        offsets = range(-width + 1, width + 1)
        cands = []
        for da in offsets:
            for db in offsets if F.degree == 2 else (0,):
                q = F.integer(fa + da, fb + db)
                r = x - q * y
                cands.append(((abs(r.norm()), r.key(), q.key()), q, r))
        _, q, r = min(cands, key=lambda c: c[0])
        if abs(r.norm()) < abs(y.norm()):
            return q, r
    raise AssertionError("no euclidean step")


@settings(max_examples=200, deadline=None)
@given(
    d=st.sampled_from([1, 2, 5, 13, 17]),
    xs=st.tuples(*[st.integers(-60, 60)] * 4),
)
def test_integer_division_matches_field_elements(d, xs):
    F = field(d)
    x = F.integer(xs[0], xs[1] if d > 1 else 0)
    y = F.integer(xs[2], xs[3] if d > 1 else 0)
    if y.is_zero():
        return
    assert euclid_divmod(x, y) == _euclid_reference(x, y)
    exact = (x.to_element() / y.to_element()).is_integral()
    assert divides(y, x) == exact
    if exact:
        assert exact_div(x, y).to_element() == x.to_element() / y.to_element()
    else:
        with pytest.raises(ValueError):
            exact_div(x, y)
    assert exact_div(x * y, y) == x


def test_primes_above_ramified():
    F5 = field(5)
    (P,) = primes_above(F5, 5)
    assert P.e == 2 and P.f == 1
    assert is_associate(P.generator * P.generator, F5.integer(5))
    F2 = field(2)
    (P2,) = primes_above(F2, 2)
    assert P2.e == 2
    assert abs(P2.generator.norm()) == 2


def test_valuations():
    F = field(5)
    (P,) = primes_above(F, 5)
    assert P.valuation(F.integer(5)) == 2
    assert P.valuation(F.integer(-1, 2)) == 1  # sqrt5
    (Q,) = primes_above(F, 2)
    assert Q.valuation(F.integer(4)) == 2
    assert Q.valuation(F.integer(3)) == 0
