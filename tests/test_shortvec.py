"""Property tests of the integer short-vector kernel against a brute-force box
scan, of the integral LLL reduction, and of the small-norm counts against
quaternion arithmetic."""

import gc
import itertools
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatheta.errors import BoundTooLarge
from quatheta.fields import field
from quatheta.orders import ideal_classes, standard_order
from quatheta.quadmod import hom_modules, norm_counts, trace_form
from quatheta.quaternions import construct
from quatheta.shortvec import lll_reduce, short_vectors


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
    assert [e[:-1] for e in got] == sorted(_brute_force(gram, budget), key=lambda v: v[::-1])
    assert all(e[-1] == _norm(gram, e[:-1]) for e in got)


@settings(max_examples=60, deadline=None)
@given(gram_and_budget())
def test_one_vector_of_each_sign_pair(case):
    gram, budget = case
    got = [e[:-1] for e in short_vectors(gram, budget)]
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


def _quaternion_counts(mod, trace_bound):
    """The value counts of `norm_counts`, from the unreduced search and quaternion arithmetic."""
    vecs = [e[:-1] for e in short_vectors(trace_form(mod), 2 * trace_bound)]
    return Counter(mod.value(mod.element(v)).coords() for v in vecs), len(vecs)


def test_integer_form_values_match_quaternion_norms(sqrt5_modules):
    checked = 0
    for mod in sqrt5_modules:
        want, count = _quaternion_counts(mod, 10)
        assert norm_counts(mod, 10) == want
        checked += count
    assert checked == 2204


@pytest.mark.parametrize("d,p,bound", [(1, 67, 12), (2, 7, 8)])
def test_norm_counts_match_quaternion_norms(d, p, bound):
    order = standard_order(construct(field(d), p))
    for row in hom_modules(ideal_classes(order).ideals):
        for mod in row:
            assert norm_counts(mod, bound) == _quaternion_counts(mod, bound)[0]


def test_search_leaves_no_reference_cycles(sqrt5_modules):
    # a self-referencing recursive closure would keep each result alive until a
    # full collection; the module-level search frees it by reference counting
    T = trace_form(sqrt5_modules[0])
    assert len(T) == 8
    gc.collect()
    gc.disable()
    try:
        assert len(short_vectors(T, 24)) > 0
        assert len(lll_reduce(T)[0]) == 8
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def skewed_gram(draw):
    """A positive definite Gram A^T A + D of rank 1-8 written in a skewed basis V, as V G V^T.

    V is a product of elementary integer row operations, so it is unimodular.
    """
    n = draw(st.integers(1, 8))
    a = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    gram = [
        [sum(a[k][i] * a[k][j] for k in range(n)) + (draw(st.integers(1, 4)) if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(draw(st.integers(0, 12))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if i != j:
                q = draw(st.integers(-9, 9))
                v[i] = [x + q * y for x, y in zip(v[i], v[j])]
    return _congruent(v, gram)


def _congruent(u, gram):
    n = len(gram)
    return [[sum(u[i][r] * gram[r][s] * u[j][s] for r in range(n) for s in range(n)) for j in range(n)] for i in range(n)]


def _det(m):
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(len(a)):
        piv = next((r for r in range(k, len(a)) if a[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, len(a)):
            f = a[r][k] / a[k][k]
            a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return det


def _gram_schmidt(gram):
    """mu and the squared lengths B of the Gram-Schmidt basis, over the rationals."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (gram[i][j] - sum(mu[j][k] * mu[i][k] * b[k] for k in range(j))) / b[j]
        b[i] = gram[i][i] - sum(mu[i][k] ** 2 * b[k] for k in range(i))
    return mu, b


@settings(max_examples=150, deadline=None)
@given(skewed_gram())
def test_lll_reduce_is_a_unimodular_lll_reduction(gram):
    reduced, u = lll_reduce(gram)
    assert abs(_det(u)) == 1
    assert reduced == _congruent(u, gram)
    mu, b = _gram_schmidt(reduced)
    n = len(gram)
    assert all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i))
    assert all(b[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * b[k - 1] for k in range(1, n))


@settings(max_examples=100, deadline=None)
@given(skewed_gram(), st.integers(0, 30))
def test_reduced_search_finds_the_same_vectors(gram, budget):
    """The vectors of the reduced form, mapped back by U and sign-normalized, are those of the input form."""
    reduced, u = lll_reduce(gram)
    n = len(gram)
    back = []
    for *y, value in short_vectors(reduced, budget):
        x = tuple(sum(y[k] * u[k][j] for k in range(n)) for j in range(n))
        if [c for c in x if c][-1] < 0:
            x = tuple(-c for c in x)
        back.append((*x, value))
    assert sorted(back, key=lambda e: e[-2::-1]) == short_vectors(gram, budget)


def test_lll_reduce_rejects_non_positive_definite():
    for gram in ([[0]], [[1, 2], [2, 1]], [[2, 1, 0], [1, 2, 1], [0, 1, -3]]):
        with pytest.raises(ValueError, match="not positive definite"):
            lll_reduce(gram)
