"""Exact linear algebra: one integer echelon form, built by inserting rows one
at a time, with the Hermite normal form, the left kernel (from [M | I];
Cohen, GTM 138, §2.4) and the rank and pivots of a row space read off it,
and the one reduced row echelon form over a residue field."""

from __future__ import annotations


def hnf_int(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of an integer matrix.

    Pivots positive, entries below a pivot zero, entries above reduced into
    [0, pivot).  Zero rows are dropped.  Canonical for a given row lattice.
    """
    return _reduce_above(_echelon(rows))


def _echelon(rows: list[list[int]]) -> list[list[int] | None]:
    """An upper-triangular basis of the row lattice with positive pivots, as
    the list over the columns of the row pivoting there (None where no row does).

    Rows are inserted one at a time (Cohen, GTM 138, §2.4): at its first
    nonzero column a row meets that column's pivot row and is reduced by it
    when the pivot divides its entry; otherwise one extended-gcd step turns
    the pair into a new pivot row and a remainder that vanishes there.  The
    remainder moves on to the next nonzero column, and a row that reaches
    zero drops out.  Rows that arrive triangular cost no Euclid step.
    """
    n = len(rows[0]) if rows else 0
    pivots: list[list[int] | None] = [None] * n
    for r in rows:
        for col in range(n):
            b = r[col]
            if not b:
                continue
            p = pivots[col]
            if p is None:
                pivots[col] = list(r) if b > 0 else [-x for x in r]
                break
            a = p[col]
            if b % a:  # g = u a + v b: the pivot row becomes u p + v r, and r the combination vanishing at col
                g, u, v = _xgcd(a, b)
                a, b = a // g, b // g
                pivots[col] = _reduce_tail([u * x + v * y for x, y in zip(p, r)], col, pivots)
                r = [b * x - a * y for x, y in zip(p, r)]
            else:
                q = b // a
                r = [y - q * x for x, y in zip(p, r)]
    return pivots


def _reduce_tail(row: list[int], col: int, pivots: list[list[int] | None]) -> list[int]:
    """A new pivot row at col, its entries past col reduced modulo the pivots there.

    Unreduced, the extended-gcd steps let entries grow without bound (past
    10^100 on a 16 x 24 kernel matrix with two-digit entries).
    """
    for c in range(col + 1, len(pivots)):
        p = pivots[c]
        if p is not None:
            q = row[c] // p[c]
            if q:
                row = [x - q * y for x, y in zip(row, p)]
    return row


def _reduce_above(pivots: list[list[int] | None]) -> list[list[int]]:
    """The HNF from `_echelon`'s pivot rows: the entries above each pivot
    reduced into [0, pivot), column by column from the left."""
    out: list[list[int]] = []
    for col, p in enumerate(pivots):
        if p is None:
            continue
        a = p[col]
        for i, h in enumerate(out):
            q = h[col] // a
            if q:
                out[i] = [x - q * y for x, y in zip(h, p)]
        out.append(p)
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with g = gcd(a, b) = u a + v b, for a > 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return (a, u0, v0) if a > 0 else (-a, -u0, -v0)


def kernel_int(rows: list[list[int]]) -> list[list[int]]:
    """HNF basis of the left integer kernel {v : v * M = 0} of the matrix with the given rows.

    In an echelon basis of [M | I] the rows that pivot past M's columns
    vanish on them and span the kernel in their identity part, so only they
    are reduced to the HNF.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    n = len(rows)
    zeros = [0] * n
    aug = [[*r, *zeros[:i], 1, *zeros[i + 1 :]] for i, r in enumerate(rows)]
    return _reduce_above([None if r is None else r[ncols:] for r in _echelon(aug)[ncols:]])


def rank_and_pivots_int(rows: list[list[int]]) -> tuple[int, list[int]]:
    """Rank of the row space and its pivot columns, read off an integer echelon basis."""
    pivots = [c for c, r in enumerate(_echelon(rows)) if r is not None]
    return len(pivots), pivots


def residue_rowreduce(F, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over a ResidueField, zero rows dropped, and its pivot columns."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        sel = next((i for i in range(rank, len(m)) if m[i][col] != F.zero), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        inv = F.inv(m[rank][col])
        m[rank] = [F.mul(inv, a) for a in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != F.zero:
                c = m[i][col]
                m[i] = [F.sub(a, F.mul(c, b)) for a, b in zip(m[i], m[rank])]
        pivots.append(col)
    return m[: len(pivots)], pivots


def residue_nullspace(F, rows: list[list]) -> list[list]:
    """Basis of the right nullspace {v : M v = 0} over a ResidueField.

    One vector per free column, with a one there, read off the RREF; deterministic.
    """
    ncols = len(rows[0]) if rows else 0
    rref, pivots = residue_rowreduce(F, rows)
    basis = []
    for col in range(ncols):
        if col in pivots:
            continue
        v = [F.zero] * ncols
        v[col] = F.one
        for pc, row in zip(pivots, rref):
            v[pc] = F.neg(row[col])
        basis.append(v)
    return basis
