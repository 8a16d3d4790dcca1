"""Factorization over Z against sympy's factor_list: factors, multiplicities and order."""

import sympy
from hypothesis import given, settings, strategies as st

from quatheta.zpoly import factor

X = sympy.Symbol("x")


def _sympy_factor(f):
    return [([int(c) for c in sympy.Poly(g, X).all_coeffs()], m) for g, m in sympy.factor_list(sympy.Poly(f, X))[1]]


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _cuspidal_part(charpoly, prime):
    quo = [charpoly[0]]
    for c in charpoly[1:]:
        quo.append(c + (prime.norm + 1) * quo[-1])
    assert quo.pop() == 0
    return quo


monic = st.lists(st.integers(-30, 30), min_size=1, max_size=4).map(lambda tail: [1] + tail)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(monic, st.integers(1, 3)), min_size=1, max_size=4))
def test_products_with_repeated_factors(parts):
    f = [1]
    for g, m in parts:
        for _ in range(m):
            f = _times(f, g)
    assert factor(f) == _sympy_factor(f)


def test_small_cases():
    assert factor([1]) == []
    assert factor([1, 5]) == [([1, 5], 1)]
    assert factor([1, 0, 0, 0]) == [([1, 0], 3)]
    assert factor([1, 0, -4, 0]) == [([1, -2], 1), ([1, 0], 1), ([1, 2], 1)]
    # Swinnerton-Dyer: irreducible, yet split into linear and quadratic factors modulo every prime
    sd = [1, 0, -10, 0, 1]
    assert factor(sd) == [(sd, 1)]
    # x^8 - 1: four cyclotomic factors
    assert factor([1, 0, 0, 0, 0, 0, 0, 0, -1]) == _sympy_factor([1, 0, 0, 0, 0, 0, 0, 0, -1])


def test_brandt_cuspidal_polynomials(brandt_charpolys):
    # every cuspidal polynomial of the digest configurations, and the degree-16 ones of (Q,191,B=40)
    seen = 0
    for blocks in brandt_charpolys.values():
        for charpoly, prime in blocks:
            f = _cuspidal_part(charpoly, prime)
            assert factor(f) == _sympy_factor(f), f
            seen += 1
    assert seen == 64 + 9
    assert {len(_cuspidal_part(c, P)) - 1 for c, P in brandt_charpolys[1, 191, "level_p", 40]} == {16}


def test_remainder_sequence_gcd():
    # the fallback when the heuristic gcd fails, against sympy's gcd
    from quatheta.zpoly import _prs_gcd_monic

    a, b, c = [1, 3, -7], [1, 0, 2, 5], [1, -1]
    f = _times(_times(a, a), _times(b, c))
    g = _times(_times(a, [3, 1]), [2, -6, 4])
    want = [int(x) for x in sympy.gcd(sympy.Poly(f, X), sympy.Poly(g, X)).monic().all_coeffs()]
    assert _prs_gcd_monic(f, g) == want == _times(a, [1, -1])
    assert _prs_gcd_monic(f, [7]) == [1]
    assert _prs_gcd_monic(b, _times(b, [5, 1])) == b
