"""Theta series: exactness against the naive box-scan oracle, parity, differences."""

from fractions import Fraction

import pytest

from quatheta.errors import IncompatibleBounds
from quatheta.fields import field
from quatheta.orders import ideal_classes, level_one_order, standard_order
from quatheta.quadmod import gram_and_level, hom_module, hom_modules, trace_form
from quatheta.quaternions import construct
from quatheta.theta import theta, theta_difference, theta_matrix

from oracles import det_generic, eta_product_coefficients, theta_box_scan


def _classes(d, p, mode="level_p"):
    alg = construct(field(d), p)
    O = standard_order(alg) if mode == "level_p" else level_one_order(alg)
    return ideal_classes(O)


def test_trace_form_rational_case_doubles_gram():
    cs = _classes(1, 11)
    m = hom_module(cs.ideals[0], cs.ideals[0], 0, 0)
    T = trace_form(m)
    for r in range(4):
        for s in range(4):
            assert T[r][s] == m.gram[r][s].a  # over Q: Tr(B) = B = 2Q-gram


def test_trace_form_positive_definite():
    from fractions import Fraction

    cs = _classes(5, 2)
    m = hom_module(cs.ideals[0], cs.ideals[0], 0, 0)
    T = trace_form(m)
    for k in range(1, len(T) + 1):
        minor = [[Fraction(T[i][j]) for j in range(k)] for i in range(k)]
        assert det_generic(minor, Fraction(0)) > 0


def test_basic_coefficients():
    cs = _classes(1, 11)
    thetas = theta_matrix(hom_modules(cs.ideals), 10)
    assert all(thetas[i][j].counts[0] == 1 for i in range(2) for j in range(2))
    assert thetas[0][0].counts[1] == 4  # norm-one elements of the first order
    assert thetas[1][1].counts[1] == 6
    for i in range(2):
        for j in range(2):
            assert all(c % 2 == 0 for c in thetas[i][j].counts[1:])
    # conjugation symmetry a_nu(M_ij) = a_nu(M_ji): (1, 0) shares the counts of
    # (0, 1), so compare it with the module built as the product conj(I_0) I_1
    assert thetas[1][0].counts == theta(hom_module(cs.ideals[1], cs.ideals[0], 1, 0), 10).counts


@pytest.mark.parametrize("d,p,bound", [(1, 67, 50), (5, 11, 12), (2, 7, 12), (13, 3, 12), (1, 503, 4)])
def test_mirrored_table_matches_product_built_modules(d, p, bound):
    # hom_modules builds (j, i) as the conjugate of (i, j), and theta_matrix
    # mirrors (i, j) into (j, i); both must agree with the module built as the
    # product conj(I_i) I_j and with its own enumeration
    cs = _classes(d, p)
    mods = hom_modules(cs.ideals)
    thetas = theta_matrix(mods, bound)
    for i in range(cs.size):
        for j in range(i + 1, cs.size):
            built = hom_module(cs.ideals[j], cs.ideals[i], j, i)
            mirrored = mods[j][i]
            assert (built.lattice.mat, built.lattice.den) == (mirrored.lattice.mat, mirrored.lattice.den)
            assert (built.normalizer, built.gram, built.i, built.j) == (mirrored.normalizer, mirrored.gram, j, i)
            assert gram_and_level(built) == gram_and_level(mirrored)
            assert theta(built, bound).counts == thetas[j][i].counts, (d, p, i, j)
            assert (thetas[j][i].i, thetas[j][i].j) == (j, i)


def test_hurwitz_unit_count():
    cs = _classes(1, 2)
    t = theta_matrix(hom_modules(cs.ideals), 6)[0][0]
    assert t.counts[1] == 24


def test_total_count_consistency():
    cs = _classes(1, 11)
    m = hom_module(cs.ideals[0], cs.ideals[1], 0, 1)
    t = theta(m, 10)
    scan = theta_box_scan(m, 10)
    assert t.total() == 1 + sum(scan.values())


@pytest.mark.parametrize("d,p", [(1, 11), (5, 2), (5, 3)])
def test_theta_matches_box_scan_oracle(d, p):
    bound = 10 if d == 1 else 6
    cs = _classes(d, p)
    for i in range(cs.size):
        for j in range(cs.size):
            m = hom_module(cs.ideals[i], cs.ideals[j], i, j)
            t = theta(m, bound)
            scan = theta_box_scan(m, bound)
            got = {nu.coords(): c for nu, c in zip(t.nus, t.counts) if c and not nu.is_zero()}
            assert got == scan, (d, p, i, j)


def test_difference_examples():
    cs = _classes(1, 11)
    thetas = theta_matrix(hom_modules(cs.ideals), 30)
    zero = theta_difference(thetas[0][0], thetas[0][0])
    assert not any(zero)
    d = theta_difference(thetas[0][0], thetas[1][1])
    assert d[0] == 0 and d[1] == -2
    eta = eta_product_coefficients(11, 30)
    assert list(d) == [-2 * c for c in eta]
    with pytest.raises(IncompatibleBounds):
        theta_difference(thetas[0][0], theta_matrix(hom_modules(cs.ideals), 10)[0][0])


def test_weighted_row_sums_independent_of_source():
    # Eisenstein identity: sum_j a_nu(M_ij)/w_j does not depend on i
    for d, p, bound in [(1, 11, 12), (5, 11, 6)]:
        cs = _classes(d, p)
        thetas = theta_matrix(hom_modules(cs.ideals), bound)
        H = cs.size
        rows = [
            [
                sum(Fraction(thetas[i][j].counts[k], cs.weights[j]) for j in range(H))
                for k in range(len(thetas[0][0].counts))
            ]
            for i in range(H)
        ]
        assert all(r == rows[0] for r in rows[1:])


def test_trace_form_matches_direct_expansion():
    # each entry of the Z-structure Gram equals Tr(Trd(x conj(y))/n) computed
    # directly with quaternion arithmetic
    cs = _classes(5, 11)
    m = hom_module(cs.ideals[0], cs.ideals[1], 0, 1)
    T = trace_form(m)
    zb = m.lattice.z_basis()
    ne = m.normalizer.to_element()
    for r in range(8):
        for s in range(8):
            v = ((zb[r] * zb[s].conjugate()).reduced_trace() / ne).to_integer()
            assert T[r][s] == v.trace()


def test_smaller_bound_is_prefix():
    cs = _classes(1, 11)
    m = hom_module(cs.ideals[0], cs.ideals[1], 0, 1)
    big = theta(m, 10)
    small = theta(m, 6)
    assert big.counts[: len(small.counts)] == small.counts


def test_enumeration_cap():
    from quatheta.errors import BoundTooLarge

    cs = _classes(1, 11)
    m = hom_module(cs.ideals[0], cs.ideals[0], 0, 0)
    with pytest.raises(BoundTooLarge):
        theta(m, 40, cap=10)


def test_hurwitz_theta_is_odd_divisor_sum():
    # representation numbers of the p=2 maximal order: a_n = 24 * sum of odd divisors
    from oracles import odd_divisor_sum

    cs = _classes(1, 2)
    t = theta_matrix(hom_modules(cs.ideals), 16)[0][0]
    for k, nu in enumerate(t.nus):
        if nu.is_zero():
            continue
        assert t.counts[k] == 24 * odd_divisor_sum(nu.a), nu


def test_icosian_theta_is_ideal_divisor_sum():
    # single class of weight 60 at trivial level: a_nu = 120 * sum of divisor norms
    from oracles import ideal_divisor_norm_sum

    F5 = field(5)
    cs = _classes(5, 2, "level_one")
    t = theta_matrix(hom_modules(cs.ideals), 10)[0][0]
    for k, nu in enumerate(t.nus):
        if nu.is_zero():
            continue
        assert t.counts[k] == 120 * ideal_divisor_norm_sum(F5, nu), nu.coords()
