"""Span of theta differences against the genus oracle and Hilbert property checks."""

from quatheta.basis import (
    classical_dimension,
    difference_rows,
    eisenstein_weighted_sums,
    hecke_stability,
    hilbert_consistency,
    span_rank,
)
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
    primes = [primes_above(field(5), q)[0] for q in (2, 3, 7)]
    span, checks = hilbert_consistency(cs, th, primes)
    assert span.rank == cs.size - 1  # no coincident theta rows here
    assert span.stable
    assert checks.all_ok, checks.failures()


def test_hilbert_level_two_single_class():
    cs, th = _setup(5, 2, 8)
    span, checks = hilbert_consistency(cs, th, [primes_above(field(5), 3)[0]])
    assert span.class_count == 1
    assert span.rank == 0
    assert checks.all_ok


def test_eisenstein_weighted_sums_exact():
    cs, th = _setup(5, 11, 8)
    rep = eisenstein_weighted_sums(cs, th)
    assert rep.all_ok


def test_hecke_stability_exact():
    cs, th = _setup(5, 11, 10)
    rows = difference_rows(th)
    rep = hecke_stability(cs, th, [primes_above(field(5), 2)[0]], rows, span_rank(th, None, rows).rank)
    assert rep.all_ok, rep.failures()
