"""Hom modules: integrality, primitivity, definiteness, levels, multiplicativity."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatheta.errors import LevelMismatch
from quatheta.fields import field, field_gcd, is_associate
from quatheta.orders import ideal_classes, level_one_order, standard_order, unit_weight
from quatheta.quadmod import gram_and_level, hom_module, hom_modules
from quatheta.quaternions import construct
from quatheta.theta import theta

from oracles import gram_level_by_inverse


def _classes(d, p, mode="level_p"):
    alg = construct(field(d), p)
    O = standard_order(alg) if mode == "level_p" else level_one_order(alg)
    return ideal_classes(O)


def test_diagonal_module_is_order_form():
    F = field(1)
    cs = _classes(1, 11)
    m = hom_module(cs.ideals[0], cs.ideals[0], 0, 0)
    assert m.normalizer.coords() == (1, 0)
    assert m.value(m.lattice.basis()[0]) == m.lattice.basis()[0].reduced_norm()


def test_gram_determinant_and_level_eleven():
    F = field(1)
    cs = _classes(1, 11)
    for i in range(2):
        for j in range(2):
            m = hom_module(cs.ideals[i], cs.ideals[j], i, j)
            det, level = gram_and_level(m)
            assert det.coords() == (121, 0)  # discriminant p^2
            assert level.coords() == (11, 0)
    with pytest.raises(LevelMismatch):
        gram_and_level(m, F.one)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 5]), data=st.data())
def test_gram_and_level_matches_inverse_reference(d, data):
    # random positive definite integral Grams A^T A + D over O_L
    F = field(d)
    coef = st.integers(-3, 3)
    A = [[F.integer(data.draw(coef), data.draw(coef) if d > 1 else 0) for _ in range(4)] for _ in range(4)]
    D = [data.draw(st.integers(1, 6)) for _ in range(4)]
    G = tuple(
        tuple(sum((A[k][r] * A[k][s] for k in range(4)), F.zero) + (D[r] if r == s else 0) for s in range(4))
        for r in range(4)
    )
    assert gram_and_level(SimpleNamespace(gram=G)) == gram_level_by_inverse(F, G)


@pytest.mark.parametrize("d,p", [(1, 67), (5, 11)])
def test_gram_and_level_matches_inverse_reference_on_hom_modules(d, p):
    F = field(d)
    for row in hom_modules(_classes(d, p).ideals):
        for m in row:
            assert gram_and_level(m, F.integer(p)) == gram_level_by_inverse(F, m.gram)


def test_unit_value_detects_isomorphism():
    cs = _classes(1, 11)
    m01 = hom_module(cs.ideals[0], cs.ideals[1], 0, 1)
    t = theta(m01, 4)
    assert t.counts[1] == 0  # Q(x) = 1 unsolvable across distinct classes
    m00 = hom_module(cs.ideals[0], cs.ideals[0], 0, 0)
    assert theta(m00, 4).counts[1] == 2 * unit_weight(cs.order)


def test_level_one_module_unimodular():
    F5 = field(5)
    cs = _classes(5, 2, "level_one")
    m = hom_module(cs.ideals[0], cs.ideals[0], 0, 0)
    det, level = gram_and_level(m, F5.one)
    assert det.is_unit()  # the icosian norm form is unimodular
    assert level.is_unit()


def test_level_p_mode_quadratic_field():
    F5 = field(5)
    cs = _classes(5, 11)
    for i in range(cs.size):
        for j in range(cs.size):
            m = hom_module(cs.ideals[i], cs.ideals[j], i, j)
            _, level = gram_and_level(m, F5.integer(11))
            assert is_associate(level, F5.integer(11))


def test_bilinear_identities():
    rng = random.Random(21)
    cs = _classes(1, 11)
    m = hom_module(cs.ideals[0], cs.ideals[1], 0, 1)
    bs = m.lattice.basis()
    F = field(1)
    for _ in range(40):
        c1 = [rng.randrange(-3, 4) for _ in range(4)]
        c2 = [rng.randrange(-3, 4) for _ in range(4)]
        x = sum((b.scale(F.element(c)) for c, b in zip(c1, bs[1:])), bs[0].scale(F.element(c1[0])))
        y = sum((b.scale(F.element(c)) for c, b in zip(c2, bs[1:])), bs[0].scale(F.element(c2[0])))
        assert m.bilinear(x, y) == m.bilinear(y, x)
        assert m.value(x + y) - m.value(x) - m.value(y) == m.bilinear(x, y)
        assert m.bilinear(x, x) == 2 * m.value(x)
        ell = F.integer(rng.randrange(1, 4))
        assert m.value(x.scale(ell.to_element())) == ell * ell * m.value(x)
        if not x.is_zero():
            assert m.value(x).is_totally_positive()


def test_degree_multiplicative_up_to_unit():
    # x: class0 -> class1 maps, y: class1 -> class0 maps; y*x lands in n1 * M_00
    cs = _classes(1, 11)
    m01 = hom_module(cs.ideals[0], cs.ideals[1], 0, 1)
    m10 = hom_module(cs.ideals[1], cs.ideals[0], 1, 0)
    m00 = hom_module(cs.ideals[0], cs.ideals[0], 0, 0)
    n1 = cs.ideals[1].norm
    F = field(1)
    x = m01.lattice.basis()[0]
    y = m10.lattice.basis()[1]
    z = (y * x).scale(F.element(1, 0, n1.a))
    assert m00.lattice.contains(z)
    lhs = m00.value(z)
    rhs = m10.value(y) * m01.value(x)
    unit = lhs.to_element() / rhs.to_element()
    assert unit.is_integral() and unit.to_integer().is_unit()


def test_norm_ideal_identity():
    # gcd over x of Nrd(conj(psi) x) equals Q(psi) * n^2 up to a unit
    cs = _classes(1, 11)
    m = hom_module(cs.ideals[0], cs.ideals[1], 0, 1)
    F = field(1)
    n = m.normalizer
    bs = m.lattice.basis()
    for psi in bs[:2]:
        g = F.zero
        for x in bs:
            g = field_gcd(g, (psi.conjugate() * x).reduced_norm().to_integer())
        for x in bs:
            for y in bs:
                g = field_gcd(g, (psi.conjugate() * (x + y)).reduced_norm().to_integer())
        assert is_associate(g, m.value(psi) * n * n)


def test_unit_rescaling_permutes_representations():
    # replacing the normalizer by u*n (u a totally positive unit) permutes
    # coefficients by nu -> u^{-1} nu; over the rationals u = 1, so exercise
    # the real quadratic case
    from quatheta.fields import canonical_positive_associate

    F5 = field(5)
    cs = _classes(5, 11)
    m = hom_module(cs.ideals[0], cs.ideals[0], 0, 0)
    eps2 = F5.fundamental_unit * F5.fundamental_unit
    t = theta(m, 8)
    rescaled = {}
    from quatheta.shortvec import short_vectors
    from quatheta.quadmod import trace_form

    for entry in short_vectors(trace_form(m), 2 * 8):
        x = m.element(entry[:-1])
        nu = m.value(x)
        key = canonical_positive_associate(nu).coords()
        rescaled[key] = rescaled.get(key, 0) + 2
    # bucket the u*n-normalized values by canonical orbit representative too
    other = {}
    for entry in short_vectors(trace_form(m), 2 * 8):
        x = m.element(entry[:-1])
        nu_scaled = m.value(x) * eps2  # = Nrd(x) / (eps^-2 n)
        key = canonical_positive_associate(nu_scaled).coords()
        other[key] = other.get(key, 0) + 2
    assert rescaled == other
