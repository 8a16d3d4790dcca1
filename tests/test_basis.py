"""Span of theta differences against the genus oracle and Hilbert property checks."""

import pytest

from quatheta.basis import (
    classical_dimension,
    difference_rows,
    eisenstein_weighted_sums,
    hecke_stability,
    hilbert_consistency,
    span_rank,
)
from quatheta.brandt import BrandtMatrix, BrandtTable, brandt_table
from quatheta.errors import CoefficientOutOfRange
from quatheta.fields import field, primes_above
from quatheta.orders import ideal_classes, level_one_order, standard_order
from quatheta.quadmod import hom_modules
from quatheta.quaternions import construct
from quatheta.theta import theta_matrix

from oracles import classical_genus_table


def _setup(d, p, bound, mode="level_p"):
    alg = construct(field(d), p)
    O = standard_order(alg) if mode == "level_p" else level_one_order(alg)
    cs = ideal_classes(O)
    return cs, theta_matrix(hom_modules(cs.ideals), bound)


def test_classical_dimension_formula():
    for p, g in classical_genus_table().items():
        assert classical_dimension(p) == g


def test_span_rank_single_class():
    cs, th = _setup(1, 2, 8)
    rep = span_rank(th, classical_dimension(2))
    assert rep.rank == 0
    assert rep.verdict == "pass"


def test_span_rank_eleven():
    cs, th = _setup(1, 11, 20)
    rep = span_rank(th, classical_dimension(11))
    assert rep.rank == 1
    assert rep.stable
    assert rep.verdict == "pass"
    assert rep.pivot_nus[0] == (1, 0)


def test_span_rank_twenty_three():
    cs, th = _setup(1, 23, 30)
    rep = span_rank(th, classical_dimension(23))
    assert rep.rank == 2
    assert rep.verdict == "pass"


def test_rank_monotone_and_stabilizes():
    cs = ideal_classes(standard_order(construct(field(1), 23)))
    ranks = []
    for bound in (4, 8, 16, 30):
        th = theta_matrix(hom_modules(cs.ideals), bound)
        ranks.append(span_rank(th).rank)
    assert ranks == sorted(ranks)
    assert ranks[-1] == ranks[-2] == 2


def test_hilbert_consistency_sqrt5_eleven():
    cs, th = _setup(5, 11, 10)
    table = brandt_table(cs, th)
    primes = [primes_above(field(5), q)[0] for q in (2, 3)]
    span, checks = hilbert_consistency(th, table, primes)
    assert span.rank == cs.size - 1  # no coincident theta rows here
    assert span.stable
    assert checks.all_ok, checks.failures()
    # 7 is inert in Q(sqrt5): its index 7 has trace 14, past the bound 10
    with pytest.raises(CoefficientOutOfRange):
        hilbert_consistency(th, table, [primes_above(field(5), 7)[0]])


def test_hilbert_level_two_single_class():
    cs, th = _setup(5, 2, 8)
    span, checks = hilbert_consistency(th, brandt_table(cs, th), [primes_above(field(5), 3)[0]])
    assert span.class_count == 1
    assert span.rank == 0
    assert checks.all_ok


def test_eisenstein_weighted_sums_exact():
    cs, th = _setup(5, 11, 8)
    rep = eisenstein_weighted_sums(brandt_table(cs, th))
    assert rep.all_ok


def test_eisenstein_weighted_sums_name_the_first_differing_row():
    cs, th = _setup(5, 11, 8)
    table = brandt_table(cs, th)
    key, M = list(table.items())[-1]
    rows = [list(r) for r in M.entries]
    rows[2][0] += 1  # row 2 of the last B(nu) sums one too high
    perturbed = BrandtTable(table)
    perturbed[key] = BrandtMatrix(tuple(map(tuple, rows)))
    rep = eisenstein_weighted_sums(perturbed)
    assert [(c["name"], c["ok"], c["detail"]) for c in rep.checks] == [
        ("eisenstein_weighted_sum_independent_of_source", False, "row 2 differs from row 0")
    ]


def test_hecke_stability_exact():
    cs, th = _setup(5, 11, 10)
    rows = difference_rows(th)
    table = brandt_table(cs, th)
    rep = hecke_stability(th, table, [primes_above(field(5), 2)[0]], rows, span_rank(th, None, rows).rank)
    assert rep.all_ok, rep.failures()
