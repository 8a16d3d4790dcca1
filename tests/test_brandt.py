"""Brandt matrices: normalization, Hecke identities, eigenvalues."""

import pytest

from quatheta.brandt import (
    brandt,
    cuspidal_eigenvalues,
    hecke_property_suite,
    prime_power_index,
    ramanujan_ok,
)
from quatheta.errors import CoefficientOutOfRange
from quatheta.fields import field, primes_above
from quatheta.orders import ideal_classes, level_one_order, standard_order
from quatheta.quadmod import hom_modules
from quatheta.quaternions import construct
from quatheta.theta import theta_matrix

from oracles import eta_product_coefficients


def _cuspidal(cs, th, prime):
    return cuspidal_eigenvalues(brandt(cs, th, prime_power_index(prime, 1)).charpoly(), prime)


def _setup(d, p, bound, mode="level_p"):
    alg = construct(field(d), p)
    O = standard_order(alg) if mode == "level_p" else level_one_order(alg)
    cs = ideal_classes(O)
    return cs, theta_matrix(hom_modules(cs.ideals), bound)


def test_unit_index_gives_identity():
    cs, th = _setup(1, 11, 8)
    M = brandt(cs, th, field(1).one)
    assert M.entries == ((1, 0), (0, 1))


def test_row_sums_at_two():
    cs, th = _setup(1, 11, 8)
    M = brandt(cs, th, field(1).integer(2))
    assert [sum(r) for r in M.entries] == [3, 3]
    assert M.entries == ((1, 2), (3, 0))


def test_eigenvalues_at_two():
    cs, th = _setup(1, 11, 8)
    M = brandt(cs, th, field(1).integer(2))
    assert M.charpoly() == [1, -1, -6]  # (x-3)(x+2)


def test_coefficient_out_of_range():
    cs, th = _setup(1, 11, 8)
    with pytest.raises(CoefficientOutOfRange):
        brandt(cs, th, field(1).integer(9))


def test_cuspidal_eigenvalues_match_eta_product():
    cs, th = _setup(1, 11, 8)
    eta = eta_product_coefficients(11, 8)
    for q in (2, 3, 5, 7):
        evs = _cuspidal(cs, th, primes_above(field(1), q)[0])
        assert len(evs) == 1
        assert evs[0].exact == eta[q]


def test_quadratic_eigenvalue_pair_at_23():
    cs, th = _setup(1, 23, 6)
    P2 = primes_above(field(1), 2)[0]
    evs = _cuspidal(cs, th, P2)
    assert len(evs) == 2
    assert all(e.minpoly == (1, 1, -1) for e in evs)  # x^2 + x - 1
    for e in evs:
        lo, hi = e.bounds()
        assert lo <= hi
        assert ramanujan_ok(e, P2)


def test_hecke_suite_rational():
    for p in (11, 23):
        cs, th = _setup(1, p, 26)
        primes = [primes_above(field(1), q)[0] for q in (2, 3, 5, 7, 13) if q != p]
        rep = hecke_property_suite(cs, th, primes, 26)
        assert rep.all_ok, rep.failures()


def test_single_class_brandt_is_sigma():
    # H = 1 at p = 2: entries are sums of divisors for odd prime indices
    cs, th = _setup(1, 2, 8)
    for q in (3, 5, 7):
        M = brandt(cs, th, field(1).integer(q))
        assert M.entries == ((q + 1,),)
    rep = hecke_property_suite(cs, th, [primes_above(field(1), q)[0] for q in (3, 5, 7)], 8)
    assert rep.all_ok, rep.failures()


def test_level_one_single_class_quadratic():
    cs, th = _setup(5, 2, 8, mode="level_one")
    P3 = primes_above(field(5), 3)[0]
    M = brandt(cs, th, prime_power_index(P3, 1))
    assert M.entries == ((10,),)  # N(3) + 1
    rep = hecke_property_suite(cs, th, [P3], 8)
    assert rep.all_ok, rep.failures()


def test_weighted_self_adjointness():
    cs, th = _setup(1, 23, 10)
    for q in (2, 3):
        M = brandt(cs, th, field(1).integer(q))
        H = cs.size
        for i in range(H):
            for j in range(H):
                assert M.entries[i][j] * cs.weights[j] == M.entries[j][i] * cs.weights[i]


def test_charpoly_integrality_and_eisenstein_eigenvector():
    cs, th = _setup(5, 11, 10)
    P2 = primes_above(field(5), 2)[0]
    M = brandt(cs, th, prime_power_index(P2, 1))
    assert all(isinstance(c, int) for c in M.charpoly())
    assert [sum(r) for r in M.entries] == [P2.norm + 1] * cs.size


def test_eisenstein_eigenvalue_at_prime_powers():
    # row sums of B(q^k) are the divisor-norm sums sum_{t<=k} Nq^t
    from quatheta.brandt import eisenstein_eigenvalue

    cs, th = _setup(1, 11, 26)
    P2 = primes_above(field(1), 2)[0]
    for k in (1, 2, 3, 4):
        M = brandt(cs, th, prime_power_index(P2, k))
        want = eisenstein_eigenvalue(P2, k, 11)
        assert want == sum(2 ** t for t in range(k + 1))
        assert [sum(r) for r in M.entries] == [want] * cs.size
