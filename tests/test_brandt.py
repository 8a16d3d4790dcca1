"""Brandt matrices: normalization, Hecke identities, eigenvalues."""

import dataclasses

import pytest

from quatheta.brandt import (
    brandt_table,
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

from oracles import cuspidal_eigenvalues_sympy, eta_product_coefficients


def _cuspidal(table, prime):
    return cuspidal_eigenvalues(table[prime_power_index(prime, 1).coords()].charpoly(), prime)


def _setup(d, p, bound, mode="level_p"):
    alg = construct(field(d), p)
    O = standard_order(alg) if mode == "level_p" else level_one_order(alg)
    cs = ideal_classes(O)
    th = theta_matrix(hom_modules(cs.ideals), bound)
    return cs, th, brandt_table(cs, th)


def test_unit_index_gives_identity():
    _, _, table = _setup(1, 11, 8)
    assert table[(1, 0)].entries == ((1, 0), (0, 1))


def test_row_sums_at_two():
    _, _, table = _setup(1, 11, 8)
    M = table[(2, 0)]
    assert [sum(r) for r in M.entries] == [3, 3]
    assert M.entries == ((1, 2), (3, 0))


def test_eigenvalues_at_two():
    _, _, table = _setup(1, 11, 8)
    assert table[(2, 0)].charpoly() == [1, -1, -6]  # (x-3)(x+2)


def test_coefficient_out_of_range():
    _, _, table = _setup(1, 11, 8)
    with pytest.raises(CoefficientOutOfRange):
        table[(9, 0)]


@pytest.mark.parametrize(
    "d,p,bound,mode", [(1, 11, 26, "level_p"), (1, 67, 20, "level_p"), (5, 11, 12, "level_p"), (5, 2, 8, "level_one")]
)
def test_table_matches_counts_over_twice_the_weights(d, p, bound, mode):
    # theta_ij(nu) = 2 w_j B(nu)_ij at every nonzero index, and nothing else is in the table
    cs, th, table = _setup(d, p, bound, mode)
    H = cs.size
    nonzero = [(k, nu) for k, nu in enumerate(th[0][0].nus) if not nu.is_zero()]
    assert list(table) == [nu.coords() for _, nu in nonzero]
    for k, nu in nonzero:
        want = []
        for i in range(H):
            row = []
            for j in range(H):
                count, w2 = th[i][j].counts[k], 2 * cs.weights[j]
                assert count % w2 == 0, (nu, i, j)
                row.append(count // w2)
            want.append(tuple(row))
        assert table[nu.coords()].entries == tuple(want), nu


def test_table_rejects_a_count_not_divisible_by_twice_the_weight():
    cs, th, _ = _setup(1, 11, 8)
    t = th[0][1]
    k = next(k for k, c in enumerate(t.counts) if c and not t.nus[k].is_zero())
    counts = t.counts[:k] + (t.counts[k] + 1,) + t.counts[k + 1 :]
    th[0][1] = dataclasses.replace(t, counts=counts)
    with pytest.raises(ArithmeticError, match="normalization bug"):
        brandt_table(cs, th)


def test_cuspidal_eigenvalues_match_eta_product():
    _, _, table = _setup(1, 11, 8)
    eta = eta_product_coefficients(11, 8)
    for q in (2, 3, 5, 7):
        evs = _cuspidal(table, primes_above(field(1), q)[0])
        assert len(evs) == 1
        assert evs[0].exact == eta[q]


def test_quadratic_eigenvalue_pair_at_23():
    _, _, table = _setup(1, 23, 6)
    P2 = primes_above(field(1), 2)[0]
    evs = _cuspidal(table, P2)
    assert len(evs) == 2
    assert all(e.minpoly == (1, 1, -1) for e in evs)  # x^2 + x - 1
    for e in evs:
        lo, hi = e.bounds()
        assert lo <= hi
        assert ramanujan_ok(e, P2)


def test_hecke_suite_rational():
    for p in (11, 23):
        cs, _, table = _setup(1, p, 26)
        primes = [primes_above(field(1), q)[0] for q in (2, 3, 5, 7, 13) if q != p]
        rep = hecke_property_suite(cs, table, primes)
        assert rep.all_ok, rep.failures()


def test_single_class_brandt_is_sigma():
    # H = 1 at p = 2: entries are sums of divisors for odd prime indices
    cs, _, table = _setup(1, 2, 8)
    for q in (3, 5, 7):
        assert table[(q, 0)].entries == ((q + 1,),)
    rep = hecke_property_suite(cs, table, [primes_above(field(1), q)[0] for q in (3, 5, 7)])
    assert rep.all_ok, rep.failures()


def test_level_one_single_class_quadratic():
    cs, _, table = _setup(5, 2, 8, mode="level_one")
    P3 = primes_above(field(5), 3)[0]
    assert table[prime_power_index(P3, 1).coords()].entries == ((10,),)  # N(3) + 1
    rep = hecke_property_suite(cs, table, [P3])
    assert rep.all_ok, rep.failures()


def test_weighted_self_adjointness():
    cs, _, table = _setup(1, 23, 10)
    for q in (2, 3):
        M = table[(q, 0)]
        H = cs.size
        for i in range(H):
            for j in range(H):
                assert M.entries[i][j] * cs.weights[j] == M.entries[j][i] * cs.weights[i]


def test_charpoly_integrality_and_eisenstein_eigenvector():
    cs, _, table = _setup(5, 11, 10)
    P2 = primes_above(field(5), 2)[0]
    M = table[prime_power_index(P2, 1).coords()]
    assert all(isinstance(c, int) for c in M.charpoly())
    assert [sum(r) for r in M.entries] == [P2.norm + 1] * cs.size


def test_eisenstein_eigenvalue_at_prime_powers():
    # row sums of B(q^k) are the divisor-norm sums sum_{t<=k} Nq^t
    from quatheta.brandt import eisenstein_eigenvalue

    cs, _, table = _setup(1, 11, 26)
    P2 = primes_above(field(1), 2)[0]
    for k in (1, 2, 3, 4):
        M = table[prime_power_index(P2, k).coords()]
        want = eisenstein_eigenvalue(P2, k, 11)
        assert want == sum(2 ** t for t in range(k + 1))
        assert [sum(r) for r in M.entries] == [want] * cs.size


def _sympy_charpoly(entries):
    import sympy

    return [int(c) for c in sympy.Matrix(entries).charpoly(sympy.Symbol("x")).all_coeffs()]


def test_charpoly_matches_sympy_on_random_matrices():
    import random

    from quatheta.brandt import BrandtMatrix

    rng = random.Random(20)
    for n in range(1, 9):
        for _ in range(12):
            entries = tuple(tuple(rng.randint(-30, 30) for _ in range(n)) for _ in range(n))
            assert BrandtMatrix(entries).charpoly() == _sympy_charpoly(entries), entries


@pytest.mark.parametrize("d,p,bound", [(1, 11, 30), (1, 37, 20), (1, 67, 20), (5, 11, 12)])
def test_charpoly_matches_sympy_on_brandt_matrices(d, p, bound):
    # every prime-power matrix the Hecke suite builds for the default primes
    from quatheta.cli import _default_hecke

    _, _, table = _setup(d, p, bound)
    checked = 0
    for P in _default_hecke(field(d), p, bound):
        k = 1
        while prime_power_index(P, k).coords() in table:
            M = table[prime_power_index(P, k).coords()]
            assert M.charpoly() == _sympy_charpoly(M.entries), (P, k)
            checked += 1
            k += 1
    assert checked >= 4


def test_cuspidal_eigenvalues_equal_the_sympy_reference(brandt_charpolys):
    # factors, multiplicities, intervals and order, for every Hecke prime of the digest configurations
    repeated = set()
    for (d, p, _, _), blocks in brandt_charpolys.items():
        for charpoly, prime in blocks:
            got = [(e.minpoly, e.exact, e.interval) for e in cuspidal_eigenvalues(charpoly, prime)]
            assert got == cuspidal_eigenvalues_sympy(charpoly, prime.norm), (d, p, prime)
            if len(set(got)) < len(got):
                repeated.add((d, p))
    assert repeated >= {(1, 37), (1, 67), (1, 73), (5, 11), (2, 7), (17, 5)}
