"""Lattices with the normalized degree form Q(x) = Nrd(x) / n, where n is the
canonical totally positive generator of the reduced norm of the lattice, and
the one count of their elements of small norm.

A Hom module between two ideal classes (n = nrd(I_i) nrd(I_j)), a left
ideal (n = its norm) and an order (n = 1) are all such lattices, and
`degree_module`'s integrality and primitivity check certifies n.  The form
stays in the integers of the lattice's `trd_gram`: g integer coordinates for
each O_L entry, from which the trace forms are read.  Every
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
from math import gcd

from .errors import LevelMismatch
from .fields import AlgebraicInteger, _ideal_generator, canonical_positive_associate, exact_div, is_associate
from .lattices import QuaternionLattice, _scale_row, _z_structure
from .linalg import hnf_int
from .shortvec import DEFAULT_CAP, lll_reduce, short_vectors


@dataclass(frozen=True)
class QuadraticModule:
    """A lattice with Q = Nrd/n: integral, primitive, totally positive definite."""

    lattice: QuaternionLattice
    normalizer: AlgebraicInteger
    i: int
    j: int
    gram: tuple  # 4 integer rows of 4g: B(b_r, b_s) = Trd(b_r conj(b_s)) / n at row r, columns g*s .. g*s+g-1

    @property
    def field(self):
        return self.lattice.algebra.field


def degree_module(lattice: QuaternionLattice, normalizer: AlgebraicInteger, i: int = 0, j: int = 0) -> QuadraticModule:
    """The lattice with Q = Nrd/normalizer; raises unless Q is integral and primitive.

    Integrality and primitivity (the Q(b_r) and the B(b_r, b_s) span the
    unit ideal) together say that the normalizer generates the reduced norm
    of the lattice, so this is also the norm certificate of every Hom module.
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
    gram = tuple(tuple(c // N for c in row) for row in rows)
    diag = [gram[r][g * r : g * r + g] for r in range(4)]  # B(b_r, b_r) = 2 Q(b_r)
    if any(c % 2 for v in diag for c in v):
        raise ValueError("diagonal of the degree form is odd")
    content = [[c // 2 for c in v] for v in diag]
    content += [gram[r][g * t : g * t + g] for r in range(4) for t in range(r + 1, 4)]
    if g == 1:
        primitive = gcd(*(v[0] for v in content)) == 1
    else:  # the O_L-ideal they span, by the integer HNF of its Z-structure
        primitive = hnf_int(_z_structure(fld, content)) == [[1, 0], [0, 1]]
    if not primitive:
        raise ValueError("degree form has nontrivial content")
    return QuadraticModule(lattice, normalizer, i, j, gram)


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


# ---------------------------------------------------------------------------
# Small-norm search


def trace_form(mod: QuadraticModule, shift: int = 0) -> tuple | list[list[int]]:
    """Integer Gram of (x, y) -> Tr_{L/Q}(omega^shift B(x, y)) on the Z-structure.

    Shift 0 gives the positive definite trace form, over Q the rows of the
    Gram itself (read only).
    On the Z-basis omega^k b_r the entry at (omega^k b_r, omega^l b_s) is
    Tr(omega^m (a + b omega)) = a tau_m + b tau_{m+1}, for a + b omega =
    B(b_r, b_s), m = shift + k + l and tau_m = Tr(omega^m).
    """
    fld = mod.field
    if fld.degree == 1:
        return mod.gram
    t, n = fld.omega_trace, fld.omega_norm
    tau = [2, t]  # omega^2 = t omega - n
    while len(tau) < shift + 4:
        tau.append(t * tau[-1] - n * tau[-2])
    rows = []
    for row in mod.gram:
        for m in (shift, shift + 1):
            t0, t1, t2 = tau[m : m + 3]
            rows.append([c for a, b in zip(row[::2], row[1::2]) for c in (a * t0 + b * t1, a * t1 + b * t2)])
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
    R, RW = lll_reduce(trace_form(mod), trace_form(mod, 1))
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
    With gram^{-1} = adj / det, that is N = 2 det / g for g a generator of
    the ideal of 2 det, the adj[r][r] and the 2 adj[r][s] (r != s); all of
    it in O_L, on integers over Q.
    Raises LevelMismatch when an expected level is supplied and differs.
    """
    fld = mod.field
    G = mod.gram
    if fld.degree == 2:
        G = [[fld.integer(a, b) for a, b in zip(row[::2], row[1::2])] for row in G]
    # the Gram is symmetric, so adj[r][s] = adj[s][r] is the (r, s) cofactor
    adj = {(r, s): _cofactor(G, r, s) for r in range(4) for s in range(r, 4)}
    det = sum(G[0][s] * adj[0, s] for s in range(4))
    content = [2 * det] + [c if r == s else 2 * c for (r, s), c in adj.items()]
    if fld.degree == 1:
        det, g = fld.integer(det), fld.integer(gcd(*content))
    else:
        g = _ideal_generator(fld, hnf_int(_z_structure(fld, [c.coords() for c in content])))
    level = canonical_positive_associate(exact_div(2 * det, g))
    if expected_level is not None and not is_associate(level, expected_level):
        raise LevelMismatch(f"lattice level {level!r}, expected ({expected_level!r})")
    return det, level


def _cofactor(G, r: int, s: int):
    """(-1)^(r+s) times the 3x3 minor of G without row r and column s."""
    minor = [[x for t, x in enumerate(row) if t != s] for q, row in enumerate(G) if q != r]
    (a, b, c), (d, e, f), (g, h, k) = minor
    m = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
    return -m if (r + s) % 2 else m
