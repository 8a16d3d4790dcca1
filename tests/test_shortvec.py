"""Property tests of the integer short-vector kernel against a brute-force box scan."""

import gc
import itertools
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatheta.errors import BoundTooLarge
from quatheta.fields import field
from quatheta.orders import ideal_classes, standard_order
from quatheta.quadmod import hom_modules, small_norm_elements, trace_form
from quatheta.quaternions import construct
from quatheta.shortvec import short_vectors


def _norm(gram, x):
    n = len(x)
    return sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))


def _inverse_diagonal(gram):
    """Diagonal of gram^-1 by Gauss-Jordan over the rationals."""
    n = len(gram)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(gram)]
    for k in range(n):
        piv = next(r for r in range(k, n) if a[r][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        a[k] = [v / a[k][k] for v in a[k]]
        for r in range(n):
            if r != k and a[r][k] != 0:
                f = a[r][k]
                a[r] = [v - f * w for v, w in zip(a[r], a[k])]
    return [a[i][n + i] for i in range(n)]


def _brute_force(gram, budget):
    """Every x != 0 with x^T G x <= budget whose last nonzero coordinate is positive.

    By Cauchy-Schwarz each |x_i| <= sqrt(budget * (G^-1)_ii), which bounds the box.
    """
    if budget < 0:
        return []
    box = []
    for d in _inverse_diagonal(gram):
        r = isqrt(int(budget * d))
        box.append(range(-r, r + 1))
    out = []
    for x in itertools.product(*box):
        nz = [c for c in x if c]
        if nz and nz[-1] > 0 and _norm(gram, x) <= budget:
            out.append(x)
    return out


@st.composite
def gram_and_budget(draw):
    """A positive definite integer Gram A^T A + D of rank 1-5 and a small budget.

    Half the budgets are x^T G x for a drawn x, so they are exactly attained.
    """
    n = draw(st.integers(1, 5))
    a = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    gram = [
        [sum(a[k][i] * a[k][j] for k in range(n)) + (draw(st.integers(1, 3)) if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    if draw(st.booleans()):
        x = [draw(st.integers(-1, 1)) for _ in range(n)]
        budget = _norm(gram, x)
    else:
        budget = draw(st.integers(-1, 12))
    return gram, budget


@settings(max_examples=150, deadline=None)
@given(gram_and_budget())
def test_short_vectors_equal_brute_force(case):
    gram, budget = case
    got = short_vectors(gram, budget)
    # coordinates are chosen last to first, each increasing
    assert got == sorted(_brute_force(gram, budget), key=lambda v: v[::-1])


@settings(max_examples=60, deadline=None)
@given(gram_and_budget())
def test_one_vector_of_each_sign_pair(case):
    gram, budget = case
    got = short_vectors(gram, budget)
    seen = set(got)
    assert len(seen) == len(got)
    for v in got:
        assert tuple(-c for c in v) not in seen
        assert [c for c in v if c][-1] > 0


@settings(max_examples=60, deadline=None)
@given(gram_and_budget())
def test_cap_raises_bound_too_large(case):
    gram, budget = case
    count = len(short_vectors(gram, budget))
    assert len(short_vectors(gram, budget, cap=count)) == count
    if count:
        with pytest.raises(BoundTooLarge):
            short_vectors(gram, budget, cap=count - 1)


def test_non_positive_definite_rejected():
    with pytest.raises(ValueError, match="not positive definite"):
        short_vectors([[1, 2], [2, 1]], 5)


@pytest.fixture(scope="module")
def sqrt5_modules():
    order = standard_order(construct(field(5), 11))
    return [m for row in hom_modules(ideal_classes(order).ideals) for m in row]


def test_integer_form_values_match_quaternion_norms(sqrt5_modules):
    checked = 0
    for mod in sqrt5_modules:
        for vec, nu in small_norm_elements(mod, 10):
            assert nu == mod.value(mod.element(vec)).coords()
            checked += 1
    assert checked == 2204


def test_search_leaves_no_reference_cycles(sqrt5_modules):
    # a self-referencing recursive closure would keep each result alive until a
    # full collection; the module-level search frees it by reference counting
    T = trace_form(sqrt5_modules[0])
    assert len(T) == 8
    gc.collect()
    gc.disable()
    try:
        assert len(short_vectors(T, 24)) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()
