"""Lattices with the normalized degree form Q(x) = Nrd(x) / n, where n is the
canonical totally positive generator of the reduced norm of the lattice, and
the one count of their elements of small norm.

A Hom module between two ideal classes (n = nrd(I_i) nrd(I_j)), a left
ideal (n = its norm) and an order (n = 1) are all such lattices, and
`degree_module`'s integrality and unit-content check certifies n.  Every
small-norm question (theta coefficients, class keys, isomorphism tests,
unit weights) asks only how often each value occurs, and is answered by
`norm_counts`: one short-vector search on the LLL-reduced integer trace form
Tr_{L/Q}(B) of rank 4g, which hands back each value with its vector (over
Q(sqrt d) also the value of Tr(omega B), carried down the same search), so
no element is built, no vector is mapped back and no form is evaluated per
vector."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import LevelMismatch
from .fields import (
    AlgebraicInteger,
    canonical_positive_associate,
    exact_div,
    field_gcd,
    is_associate,
)
from .lattices import QuaternionLattice, _scale_row
from .shortvec import DEFAULT_CAP, lll_reduce, short_vectors


@dataclass(frozen=True)
class QuadraticModule:
    """A lattice with Q = Nrd/n: integral, primitive, totally positive definite."""

    lattice: QuaternionLattice
    normalizer: AlgebraicInteger
    i: int
    j: int
    gram: tuple  # 4x4 of AlgebraicInteger: B(b_r, b_s) = Trd(b_r conj(b_s)) / n

    @property
    def field(self):
        return self.lattice.algebra.field


def degree_module(lattice: QuaternionLattice, normalizer: AlgebraicInteger, i: int = 0, j: int = 0) -> QuadraticModule:
    """The lattice with Q = Nrd/normalizer; raises unless Q is integral with unit content.

    Integrality and unit content together say that the normalizer generates
    the reduced norm of the lattice, so this is also the norm certificate of
    every Hom module.
    """
    fld = lattice.algebra.field
    g = fld.degree
    s = lattice.den ** 2 * normalizer  # B(b_r, b_s) = trd_gram[r][s] / s
    rows = [[c for v in row for c in v] for row in lattice.trd_gram()]
    if g == 2:  # v / s = v sigma(s) / N(s), sigma the Galois conjugate
        rows = [_scale_row(fld, row, s.conjugate()) for row in rows]
    N = s.norm()
    if any(c % N for row in rows for c in row):
        raise ValueError("degree form is not integral: wrong normalizer")
    gram = tuple(tuple(fld.integer(*(c // N for c in row[k : k + g])) for k in range(0, 4 * g, g)) for row in rows)
    mod = QuadraticModule(lattice, normalizer, i, j, gram)
    _check_unit_content(mod)
    return mod


def hom_module(I_i, I_j, i: int = 0, j: int = 0) -> QuadraticModule:
    """The quadratic module of maps from the class of left ideal I_i to that of I_j.

    The lattice is conj(I_j) * I_i, of reduced norm nrd(I_i) nrd(I_j):
    dividing Nrd by the canonical generator of that product makes the form
    integral with unit content, which `degree_module` checks.
    """
    K = I_j.lattice.conjugate_multiply(I_i.lattice)
    return degree_module(K, canonical_positive_associate(I_i.norm * I_j.norm), i, j)


def hom_modules(ideals) -> list[list[QuadraticModule]]:
    """hom_module(I_i, I_j, i, j) for every ordered pair of class representatives.

    Each unordered pair is multiplied out once: for i < j the (j, i) module
    conj(I_i) I_j is the conjugate lattice of (i, j), with the same normalizer,
    since Nrd(conj x) = Nrd(x).
    """
    H = len(ideals)
    mods = [[None] * H for _ in range(H)]
    for i, I in enumerate(ideals):
        for j in range(i, H):
            m = mods[i][j] = hom_module(I, ideals[j], i, j)
            mods[j][i] = degree_module(m.lattice.conjugate(), m.normalizer, j, i) if j > i else m
    return mods


def _check_unit_content(mod: QuadraticModule) -> None:
    """The ideal generated by all Q values must be trivial (primitivity)."""
    fld = mod.field
    coeffs = []
    for r in range(4):
        d = mod.gram[r][r]  # Q(b_r) = B(b_r, b_r)/2, in O_L iff both coordinates are even
        if d.a % 2 or d.b % 2:
            raise ValueError("diagonal of the degree form is odd")
        coeffs.append(fld.integer(d.a // 2, d.b // 2))
    coeffs += [mod.gram[r][s] for r in range(4) for s in range(r + 1, 4)]
    g = fld.zero
    for c in coeffs:
        g = field_gcd(g, c)
        if g.is_unit():
            return
    raise ValueError(f"degree form has nontrivial content ({g!r})")


# ---------------------------------------------------------------------------
# Small-norm search


def trace_form(mod: QuadraticModule, weight: AlgebraicInteger | None = None) -> list[list[int]]:
    """Integer Gram of (x, y) -> Tr_{L/Q}(weight * B(x, y)) on the Z-structure.

    The weight defaults to 1, which gives the positive definite trace form.
    """
    fld = mod.field
    g = fld.degree
    n = 4 * g
    rows = [[0] * n for _ in range(n)]
    w = fld.omega if g == 2 else None
    for r in range(4):
        for s in range(4):
            base = mod.gram[r][s] if weight is None else weight * mod.gram[r][s]
            if g == 1:
                rows[r][s] = base.trace()
            else:
                rows[2 * r][2 * s] = base.trace()
                rows[2 * r][2 * s + 1] = (base * w).trace()
                rows[2 * r + 1][2 * s] = (w * base).trace()
                rows[2 * r + 1][2 * s + 1] = (w * base * w).trace()
    return rows


def norm_counts(mod: QuadraticModule, trace_bound: int, cap: int = DEFAULT_CAP) -> dict[tuple[int, int], int]:
    """{(a, b): number of pairs {x, -x} of nonzero elements with Q(x) = a + b*omega}, over Tr Q(x) <= trace_bound.

    The search runs on the LLL-reduced trace form R = U T U^T, which
    evaluates Tr(2Q), so its budget is 2*trace_bound and each entry ends
    with Tr(2Q) of its element.  Over Q that is 2Q.  Over Q(sqrt d)
    `lll_reduce` takes the form W of Tr(2 omega Q) through the same
    operations, and the search carries U W U^T on the same coordinates, so
    each entry ends with (Tr 2Q, Tr 2 omega Q); Tr(Q) and Tr(omega Q)
    determine a and b through a 2x2 integer system.
    """
    fld = mod.field
    if fld.degree == 1:
        R, _ = lll_reduce(trace_form(mod))
        return Counter((entry[-1] >> 1, 0) for entry in short_vectors(R, 2 * trace_bound, cap=cap))
    R, RW = lll_reduce(trace_form(mod), trace_form(mod, fld.omega))
    found = short_vectors(R, 2 * trace_bound, cap=cap, second=RW)
    t, n = fld.omega_trace, fld.omega_norm
    disc = t * t - 4 * n
    counts = {}
    for (v1, v2), count in Counter(entry[-2:] for entry in found).items():  # (Tr 2Q, Tr 2 omega Q)
        h1, h2 = v1 >> 1, v2 >> 1  # Tr Q = 2a + t b, Tr(omega Q) = t a + (t^2 - 2n) b
        a, ra = divmod((t * t - 2 * n) * h1 - t * h2, disc)
        b, rb = divmod(2 * h2 - t * h1, disc)
        if ra or rb:
            raise ArithmeticError(f"degree form value with traces ({h1}, {h2}) is not in O_L")
        counts[a, b] = count
    return counts


# ---------------------------------------------------------------------------
# Determinant and level


def gram_and_level(mod: QuadraticModule, expected_level: AlgebraicInteger | None = None):
    """Determinant of the bilinear Gram and the lattice level.

    The level is the smallest ideal N such that N * gram^{-1} is integral
    with diagonal in 2*O_L (the classical level of an integral lattice).
    With gram^{-1} = adj / det, that is N = 2 det / g for g the gcd of 2 det,
    the adj[r][r] and the 2 adj[r][s] (r != s); all of it in O_L.
    Raises LevelMismatch when an expected level is supplied and differs.
    """
    G = mod.gram
    # the Gram is symmetric, so adj[r][s] = adj[s][r] is the (r, s) cofactor
    adj = {(r, s): _cofactor(G, r, s) for r in range(4) for s in range(r, 4)}
    det = sum(G[0][s] * adj[0, s] for s in range(4))
    g = 2 * det
    for (r, s), c in adj.items():
        g = field_gcd(g, c if r == s else 2 * c)
    level = canonical_positive_associate(exact_div(2 * det, g))
    if expected_level is not None and not is_associate(level, expected_level):
        raise LevelMismatch(f"lattice level {level!r}, expected ({expected_level!r})")
    return det, level


def _cofactor(G, r: int, s: int) -> AlgebraicInteger:
    """(-1)^(r+s) times the 3x3 minor of G without row r and column s."""
    minor = [[x for t, x in enumerate(row) if t != s] for q, row in enumerate(G) if q != r]
    (a, b, c), (d, e, f), (g, h, k) = minor
    m = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
    return -m if (r + s) % 2 else m
