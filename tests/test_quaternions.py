"""Quaternion algebra arithmetic and the ramification certificate."""

import random

import pytest

from quatheta.errors import CompositeP, RamifiedPrime
from quatheta.fields import field, is_prime, primes_above
from quatheta.quaternions import (
    construct,
    hilbert_symbol,
    rational_presentation,
    verify_ramification,
)

from oracles import hilbert_symbol_ring_scan


def _random_element(rng, alg):
    F = alg.field
    def fe():
        return F.element(rng.randrange(-6, 7), rng.randrange(-6, 7) if F.degree == 2 else 0, rng.choice((1, 2)))
    return alg.element(fe(), fe(), fe(), fe())


def test_presentation_table():
    assert rational_presentation(2) == (-1, -1)
    assert rational_presentation(11) == (-1, -11)
    assert rational_presentation(37) == (-2, -37)
    assert rational_presentation(17) == (-17, -3)
    with pytest.raises(CompositeP):
        rational_presentation(15)


def test_construct_base_change():
    alg = construct(field(5), 11)
    assert alg.a.coords() == (-1, 0)
    assert alg.b.coords() == (-11, 0)


def test_construct_rejects_ramified_p():
    with pytest.raises(RamifiedPrime):
        construct(field(5), 5)
    with pytest.raises(RamifiedPrime):
        construct(field(2), 2)


def test_reduced_norm_trace_examples():
    alg = construct(field(1), 2)
    x = alg.element(1, 1, 1, 1)
    assert x.reduced_norm() == 4
    assert alg.one.reduced_norm() == 1
    assert alg.one.reduced_trace() == 2
    alg11 = construct(field(1), 11)
    j = alg11.element(0, 0, 1, 0)
    assert j.reduced_norm() == 11


def test_norm_multiplicative_conj_antihomomorphism():
    rng = random.Random(5)
    for d, p in [(1, 11), (5, 2), (5, 11)]:
        alg = construct(field(d), p)
        for _ in range(40):
            x, y = _random_element(rng, alg), _random_element(rng, alg)
            assert (x * y).reduced_norm() == x.reduced_norm() * y.reduced_norm()
            assert ((x * y).conjugate() - y.conjugate() * x.conjugate()).is_zero()
            # Trd(x) = Nrd(x+1) - Nrd(x) - 1
            one = alg.one
            assert x.reduced_trace() == (x + one).reduced_norm() - x.reduced_norm() - 1


def test_definiteness():
    rng = random.Random(9)
    for d, p in [(1, 11), (5, 2)]:
        alg = construct(field(d), p)
        for _ in range(60):
            x = _random_element(rng, alg)
            if x.is_zero():
                continue
            assert x.reduced_norm().is_totally_positive()


def test_ramification_sets():
    # exactly the primes above p of odd residue degree
    ram = verify_ramification(construct(field(1), 11))
    assert [P.generator.coords() for P in ram] == [(11, 0)]
    ram5 = verify_ramification(construct(field(5), 11))  # 11 splits: two primes
    assert len(ram5) == 2
    assert all(P.norm == 11 for P in ram5)
    ram52 = verify_ramification(construct(field(5), 2))  # 2 inert: trivial
    assert ram52 == ()
    ram17 = verify_ramification(construct(field(17), 2))  # 2 splits in Q(sqrt17)
    assert len(ram17) == 2 and all(P.norm == 2 for P in ram17)


def test_ramified_base_prime_in_sqrt2():
    # the candidate prime above 2 is ramified in Q(sqrt2): local degree e f = 2 there
    ram = verify_ramification(construct(field(2), 7))
    assert len(ram) == 2 and all(P.norm == 7 for P in ram)


def _scan_depth(P, a, b) -> int:
    """A k at which the ring scan is exact: a primitive solution mod P^k lifts
    by Hensel along a unit coordinate, whose partial derivative has valuation
    at most v(2) + max(v(a), v(b))."""
    two = P.field.integer(2)
    return 2 * (P.valuation(two) + max(P.valuation(a), P.valuation(b))) + 1


@pytest.mark.parametrize(
    "d,p",
    [(1, 3), (1, 5), (1, 11), (5, 3), (2, 3), (2, 5), (13, 3), (13, 5), (17, 3), (17, 5)],
)
def test_hilbert_symbol_against_full_ring_scan(d, p):
    """The closed form agrees with exhaustive residue-ring search on the presentations.

    Covers (sqrt2) in Q(sqrt2), the split primes above 2 in Q(sqrt17) and (sqrt13).
    """
    F = field(d)
    alg = construct(F, p)
    for ell in (2, 3, 5, 7, 11, 13):
        for P in primes_above(F, ell):
            k = _scan_depth(P, alg.a, alg.b)
            if P.norm ** k > 2000:
                continue  # keep the exhaustive scan small
            got = hilbert_symbol(F, alg.a, alg.b, P)
            want = hilbert_symbol_ring_scan(F, alg.a, alg.b, P, k)
            assert got == want, (d, p, ell, P.generator.coords())


def _random_pair(rng, ell, max_val):
    def one():
        u = rng.choice([u for u in range(1, 60) if u % ell])
        return rng.choice((-1, 1)) * ell ** rng.randrange(max_val + 1) * u

    return one(), one()


@pytest.mark.parametrize(
    "d,ell,max_val",
    [(1, 2, 3), (1, 3, 3), (1, 5, 1), (1, 7, 1), (2, 2, 1), (17, 2, 1), (13, 13, 0)],
)
def test_hilbert_symbol_random_pairs_against_ring_scan(d, ell, max_val):
    """Random signed a, b with rational valuation up to max_val at ell, at every prime above ell."""
    rng = random.Random(1000 * d + ell)
    F = field(d)
    seen = set()
    for _ in range(25):
        a, b = (F.integer(x) for x in _random_pair(rng, ell, max_val))
        for P in primes_above(F, ell):
            got = hilbert_symbol(F, a, b, P)
            assert got == hilbert_symbol_ring_scan(F, a, b, P, _scan_depth(P, a, b)), (d, a, b, P)
            seen.add(got)
    # rational a, b have symbol 1 wherever the local degree e f is even
    assert seen == ({1, -1} if P.e * P.f == 1 else {1})


def _prime_factors(n: int) -> set[int]:
    out, f = set(), 2
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1
    return out | ({n} if n > 1 else set())


def test_hilbert_reciprocity():
    """Over Q the product of (a, b)_v over all places, the real one included, is 1."""
    rng = random.Random(11)
    F = field(1)
    for _ in range(300):
        a, b = (rng.choice((-1, 1)) * rng.randrange(1, 10 ** 4) for _ in range(2))
        product = -1 if a < 0 and b < 0 else 1
        for ell in _prime_factors(2 * abs(a * b)):
            product *= hilbert_symbol(F, F.integer(a), F.integer(b), primes_above(F, ell)[0])
        assert product == 1, (a, b)


def test_construct_every_unramified_prime():
    """Every p < 600 unramified in the five fields gets a certified algebra."""
    for d in (1, 2, 5, 13, 17):
        F = field(d)
        for p in range(2, 600):
            if not is_prime(p) or F.discriminant % p == 0:
                continue
            ram = verify_ramification(construct(F, p))
            assert {P.generator.coords() for P in ram} == {
                P.generator.coords() for P in primes_above(F, p) if P.f % 2
            }


def test_hilbert_symbol_rejects_irrational_or_zero():
    F = field(5)
    P = primes_above(F, 2)[0]
    for a, b in [(F.integer(1, 1), F.integer(-1)), (F.integer(-1), F.integer(0)), (F.zero, F.integer(3))]:
        with pytest.raises(ValueError):
            hilbert_symbol(F, a, b, P)
