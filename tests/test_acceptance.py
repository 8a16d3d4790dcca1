"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is exact (integer or rational equality); the time budgets
are asserted with a wall clock.
"""

import time
from fractions import Fraction

from quatheta.basis import classical_dimension, hilbert_consistency, span_rank
from quatheta.brandt import brandt, cuspidal_eigenvalues, hecke_property_suite, prime_power_index
from quatheta.cli import _default_hecke
from quatheta.fields import field, primes_above
from quatheta.orders import ideal_classes, level_one_order, mass_formula, standard_order
from quatheta.quadmod import gram_and_level, hom_module, hom_modules
from quatheta.quaternions import construct
from quatheta.theta import theta, theta_matrix

from oracles import eta_product_coefficients, theta_box_scan

_class_cache = {}


def _classes(d, p, mode="level_p"):
    key = (d, p, mode)
    if key not in _class_cache:
        alg = construct(field(d), p)
        O = standard_order(alg) if mode == "level_p" else level_one_order(alg)
        _class_cache[key] = ideal_classes(O)
    return _class_cache[key]


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" - {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_classical_eichler_span():
    """Rank of theta differences at B=50 equals dim S2(Gamma0(p)); < 60 s total."""
    t0 = time.monotonic()
    expected = {11: 1, 23: 2, 37: 2, 67: 5}
    for p, dim in expected.items():
        cs = _classes(1, p)
        thetas = theta_matrix(hom_modules(cs.ideals), 50)
        rep = span_rank(thetas, classical_dimension(p))
        _report(
            f"criterion 1: span rank (Q, {p}) B=50",
            rep.rank == dim and classical_dimension(p) == dim and rep.verdict == "pass",
            f"rank {rep.rank}, genus oracle {classical_dimension(p)}, expected {dim}",
        )
    elapsed = time.monotonic() - t0
    _report("criterion 1: wall clock", elapsed < 60, f"{elapsed:.1f}s (budget 60s)")


def test_criterion_2_mass_identities():
    """Sum of inverse weights equals the mass formula exactly; < 30 s each."""
    cases = [
        (1, 11, "level_p", Fraction(5, 6), [2, 3]),
        (5, 2, "level_one", Fraction(1, 60), [60]),
        (5, 2, "level_p", Fraction(1, 12), [12]),
    ]
    for d, p, mode, mass, weights in cases:
        t0 = time.monotonic()
        cs = _classes(d, p, mode)
        got = sum(Fraction(1, w) for w in cs.weights)
        ok = (
            got == mass
            and cs.mass == mass
            and sorted(cs.weights) == sorted(weights)
            and mass_formula(cs.order) == mass
        )
        elapsed = time.monotonic() - t0
        _report(
            f"criterion 2: mass identity (d={d}, p={p}, {mode})",
            ok and elapsed < 30,
            f"mass {got}, weights {cs.weights}, {elapsed:.1f}s (budget 30s)",
        )


def test_criterion_3_eigenvalue_oracle():
    """(Q, 11) cuspidal eigenvalues at 2,3,5,7 equal eta-product coefficients; < 10 s."""
    t0 = time.monotonic()
    cs = _classes(1, 11)
    thetas = theta_matrix(hom_modules(cs.ideals), 8)
    eta = eta_product_coefficients(11, 8)
    expected = {2: -2, 3: -1, 5: 1, 7: -2}
    for q, val in expected.items():
        P = primes_above(field(1), q)[0]
        evs = cuspidal_eigenvalues(brandt(cs, thetas, prime_power_index(P, 1)).charpoly(), P)
        ok = len(evs) == 1 and evs[0].exact == val == eta[q]
        _report(
            f"criterion 3: cuspidal eigenvalue at {q}",
            ok,
            f"got {[e.exact for e in evs]}, eta oracle {eta[q]}, expected {val}",
        )
    elapsed = time.monotonic() - t0
    _report("criterion 3: wall clock", elapsed < 10, f"{elapsed:.1f}s (budget 10s)")


def test_criterion_4_theta_against_box_scan():
    """theta() equals the naive box-scan oracle for all modules; < 120 s total."""
    t0 = time.monotonic()
    for d, p in [(1, 11), (5, 2), (5, 3)]:
        bound = 10
        cs = _classes(d, p)
        for i in range(cs.size):
            for j in range(cs.size):
                m = hom_module(cs.ideals[i], cs.ideals[j], i, j)
                t = theta(m, bound)
                scan = theta_box_scan(m, bound)
                got = {
                    nu.coords(): c
                    for nu, c in zip(t.nus, t.counts)
                    if c and not nu.is_zero()
                }
                _report(
                    f"criterion 4: theta vs box scan (d={d}, p={p}, module {i}{j}, B={bound})",
                    got == scan,
                    f"{sum(got.values())} vs {sum(scan.values())} points",
                )
    elapsed = time.monotonic() - t0
    _report("criterion 4: wall clock", elapsed < 120, f"{elapsed:.1f}s (budget 120s)")


def test_criterion_5_level_invariant():
    """Every Hom-module Gram has lattice level (p) in level-p mode, (1) in level-one."""
    for d, p, mode in [(1, 11, "level_p"), (5, 2, "level_p"), (5, 11, "level_p"), (5, 2, "level_one")]:
        cs = _classes(d, p, mode)
        fld = field(d)
        expected = fld.integer(p) if mode == "level_p" else fld.one
        ok = True
        for i in range(cs.size):
            for j in range(cs.size):
                m = hom_module(cs.ideals[i], cs.ideals[j], i, j)
                _, level = gram_and_level(m, expected)  # raises LevelMismatch on failure
        _report(f"criterion 5: lattice level (d={d}, p={p}, {mode})", ok, f"level {level!r}")


def test_criterion_6_hecke_property_suite():
    """Commutation, multiplicativity, recursion, Eisenstein row sums; < 5 min total."""
    t0 = time.monotonic()
    for d, p, bound in [(1, 11, 26), (1, 23, 26), (5, 2, 12), (5, 11, 12)]:
        cs = _classes(d, p)
        thetas = theta_matrix(hom_modules(cs.ideals), bound)
        primes = _default_hecke(field(d), p, bound)
        assert all(P.norm <= 25 for P in primes)
        rep = hecke_property_suite(cs, thetas, primes, bound)
        _report(
            f"criterion 6: hecke suite (d={d}, p={p})",
            rep.all_ok,
            f"{len(rep.checks)} identities, failures: {rep.failures()}",
        )
    elapsed = time.monotonic() - t0
    _report("criterion 6: wall clock", elapsed < 300, f"{elapsed:.1f}s (budget 300s)")


def test_criterion_7_hilbert_hecke_stability():
    """(Q(sqrt5), 11): difference span exactly Brandt-stable; Eisenstein sums source-independent."""
    cs = _classes(5, 11)
    thetas = theta_matrix(hom_modules(cs.ideals), 12)
    primes = _default_hecke(field(5), 11, 12)
    span, checks = hilbert_consistency(cs, thetas, primes)
    _report(
        "criterion 7: hilbert hecke stability and eisenstein identity",
        checks.all_ok,
        f"rank {span.rank} of H-1={cs.size - 1}; checks: {len(checks.checks)}, failures {checks.failures()}",
    )
