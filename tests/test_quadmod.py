"""Hom modules: integrality, primitivity, definiteness, levels, multiplicativity."""

import random
from math import isqrt
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatheta.errors import LevelMismatch
from quatheta.fields import field, field_gcd, is_associate, primes_above
from quatheta.lattices import QuaternionLattice, _scale_row
from quatheta.orders import ideal_classes, level_one_order, standard_order, unit_weight
from quatheta.quadmod import degree_module, gram_and_level, hom_module, hom_modules, trace_form
from quatheta.quaternions import construct
from quatheta.theta import theta

from oracles import fe, fe_of, gram_level_by_inverse, integer_rows, lattice_basis, module_element, module_value


def _classes(d, p, mode="level_p"):
    alg = construct(field(d), p)
    O = standard_order(alg) if mode == "level_p" else level_one_order(alg)
    return ideal_classes(O)


def _entries(F, gram):
    """The 4x4 AlgebraicInteger Gram of a module's integer rows."""
    g = F.degree
    return tuple(tuple(F.integer(*row[k : k + g]) for k in range(0, 4 * g, g)) for row in gram)


def _rows(F, G):
    """The integer rows of a 4x4 AlgebraicInteger Gram, the inverse of `_entries`."""
    return tuple(tuple(c for e in row for c in e.coords()[: F.degree]) for row in G)


def test_diagonal_module_is_order_form():
    F = field(1)
    cs = _classes(1, 11)
    m = hom_module(cs.ideals[0], cs.ideals[0], 0, 0)
    assert m.normalizer.coords() == (1, 0)
    b = lattice_basis(m.lattice)[0]
    assert module_value(m, b) == b.reduced_norm()


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
    assert gram_and_level(SimpleNamespace(gram=_rows(F, G), field=F)) == gram_level_by_inverse(F, G)


@pytest.mark.parametrize("d,p", [(1, 67), (5, 11), (2, 7), (13, 3), (17, 5)])
def test_gram_and_level_matches_inverse_reference_on_hom_modules(d, p):
    F = field(d)
    for row in hom_modules(_classes(d, p).ideals):
        for m in row:
            # the Gram is 4 rows of 4g plain integers, g per O_L entry
            assert [len(r) for r in m.gram] == [4 * F.degree] * 4
            assert all(type(c) is int for r in m.gram for c in r)
            assert gram_and_level(m, F.integer(p)) == gram_level_by_inverse(F, _entries(F, m.gram))


def _determinant_norm(K, order_disc):
    """t = |N(n)| for the norm n of K, from d(K) = n^2 d(O) as ideals."""
    t2, r = divmod(abs(K.discriminant().norm()), abs(order_disc.norm()))
    t = isqrt(t2)
    assert r == 0 and t * t == t2
    return t


@pytest.mark.parametrize("d,p", [(1, 67), (5, 11), (2, 7), (13, 3)])
def test_hom_normalizer_is_the_certified_lattice_norm(d, p):
    """The normalizer nrd(I_i) nrd(I_j) of conj(I_j) I_i, built here through
    the conjugate lattice, has the absolute norm its discriminant certifies;
    twice it fails the integrality and unit-content check."""
    cs = _classes(d, p)
    disc = cs.order.reduced_discriminant()
    for i, I in enumerate(cs.ideals):
        for j, J in enumerate(cs.ideals):
            m = hom_module(I, J, i, j)
            K = J.lattice.conjugate().multiply(I.lattice)
            assert m.lattice == K
            assert abs(m.normalizer.norm()) == _determinant_norm(K, disc)
            with pytest.raises(ValueError):
                degree_module(K, 2 * m.normalizer)


@pytest.mark.parametrize("d", [1, 2, 5, 13])
def test_degree_module_refuses_content(d):
    # pi*O with normalizer pi is integral, Nrd(pi x)/pi = pi Nrd(x), but its
    # content is the ideal (pi); with pi^2 it is the order's form on another basis
    F = field(d)
    O = standard_order(construct(F, 3 if d == 1 else 7))
    pi = primes_above(F, 2 if d == 5 else 3)[0].generator
    L = QuaternionLattice.from_generators(O.algebra, [_scale_row(F, r, pi) for r in O.lattice.rows], O.lattice.den)
    assert gram_and_level(degree_module(L, pi * pi))[1] == gram_and_level(degree_module(O.lattice, F.one))[1]
    for wrong in (pi, F.one):
        with pytest.raises(ValueError, match="content"):
            degree_module(L, wrong)


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
    F = field(1)
    G = _entries(F, m.gram)

    def bilinear(u, v):  # B(u, v) = sum u_r v_s gram[r][s] on Z-coordinates
        return sum((u[r] * v[s] * G[r][s] for r in range(4) for s in range(4)), F.zero)

    for _ in range(40):
        c1 = [rng.randrange(-3, 4) for _ in range(4)]
        c2 = [rng.randrange(-3, 4) for _ in range(4)]
        x, y = module_element(m, c1), module_element(m, c2)
        # the Gram is Trd(x conj(y)) / n, with Q(x) = Nrd(x) / n
        assert bilinear(c1, c2) == bilinear(c2, c1)
        assert bilinear(c1, c2) == ((x * y.conjugate()).reduced_trace() / fe_of(m.normalizer)).to_integer()
        assert module_value(m, x + y) - module_value(m, x) - module_value(m, y) == bilinear(c1, c2)
        assert bilinear(c1, c1) == 2 * module_value(m, x)
        ell = rng.randrange(1, 4)
        assert module_value(m, module_element(m, [ell * c for c in c1])) == ell * ell * module_value(m, x)
        if any(c1):
            assert module_value(m, x).is_totally_positive()


def test_degree_multiplicative_up_to_unit():
    # x: class0 -> class1 maps, y: class1 -> class0 maps; y*x lands in n1 * M_00
    cs = _classes(1, 11)
    m01 = hom_module(cs.ideals[0], cs.ideals[1], 0, 1)
    m10 = hom_module(cs.ideals[1], cs.ideals[0], 1, 0)
    m00 = hom_module(cs.ideals[0], cs.ideals[0], 0, 0)
    n1 = cs.ideals[1].norm
    F = field(1)
    x = lattice_basis(m01.lattice)[0]
    y = lattice_basis(m10.lattice)[1]
    z = (y * x).scale(fe(F, 1, 0, n1.a))
    (row,), den = integer_rows(1, [z])
    m00.lattice.coordinates(row, den)  # raises unless z is in M_00
    lhs = module_value(m00, z)
    rhs = module_value(m10, y) * module_value(m01, x)
    unit = fe_of(lhs) / fe_of(rhs)
    assert unit.is_integral() and unit.to_integer().is_unit()


def test_norm_ideal_identity():
    # gcd over x of Nrd(conj(psi) x) equals Q(psi) * n^2 up to a unit
    cs = _classes(1, 11)
    m = hom_module(cs.ideals[0], cs.ideals[1], 0, 1)
    F = field(1)
    n = m.normalizer
    bs = lattice_basis(m.lattice)
    for psi in bs[:2]:
        g = F.zero
        for x in bs:
            g = field_gcd(g, (psi.conjugate() * x).reduced_norm().to_integer())
        for x in bs:
            for y in bs:
                g = field_gcd(g, (psi.conjugate() * (x + y)).reduced_norm().to_integer())
        assert is_associate(g, module_value(m, psi) * n * n)


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
        nu = module_value(m, module_element(m, entry[:-1]))
        key = canonical_positive_associate(nu).coords()
        rescaled[key] = rescaled.get(key, 0) + 2
    # bucket the u*n-normalized values by canonical orbit representative too
    other = {}
    for entry in short_vectors(trace_form(m), 2 * 8):
        nu_scaled = module_value(m, module_element(m, entry[:-1])) * eps2  # = Nrd(x) / (eps^-2 n)
        key = canonical_positive_associate(nu_scaled).coords()
        other[key] = other.get(key, 0) + 2
    assert rescaled == other


@pytest.mark.parametrize("d,p", [(1, 11), (2, 7), (5, 11), (13, 3), (17, 5)])
def test_trace_form_matches_algebraic_expansion(d, p):
    # entry (omega^k b_r, omega^l b_s) of the shift-m trace form is
    # Tr(omega^(m+k+l) B(b_r, b_s)), expanded here in O_L arithmetic
    F = field(d)
    cs = _classes(d, p)
    m = hom_module(cs.ideals[0], cs.ideals[-1], 0, cs.size - 1)
    G = _entries(F, m.gram)
    if F.degree == 1:
        assert [list(r) for r in trace_form(m)] == [[e.trace() for e in row] for row in G]
        return
    for shift in (0, 1):
        T = trace_form(m, shift)
        for r in range(4):
            for s in range(4):
                for k in (0, 1):
                    for l in (0, 1):
                        assert T[2 * r + k][2 * s + l] == (F.omega ** (shift + k + l) * G[r][s]).trace()
