"""Exact linear algebra: one integer Hermite normal form, with the left
kernel (from the HNF of [M | I]; Cohen, GTM 138, §2.4) and the rank and
pivots of a row space read off it, and the one reduced row echelon form over
a residue field."""

from __future__ import annotations


def hnf_int(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of an integer matrix.

    Pivots positive, entries below a pivot zero, entries above reduced into
    [0, pivot).  Zero rows are dropped.  Canonical for a given row lattice.
    """
    rest = [list(r) for r in rows if any(r)]
    out: list[list[int]] = []
    for col in range(len(rest[0]) if rest else 0):
        active = [r for r in rest if r[col]]
        rest = [r for r in rest if not r[col]]
        # reduce every row by the one of smallest nonzero entry in this column
        # until one row keeps a nonzero entry there
        while len(active) > 1:
            p = min(active, key=lambda r: abs(r[col]))
            nxt = [p]
            for r in active:
                if r is not p:
                    q = r[col] // p[col]
                    r = [a - q * b for a, b in zip(r, p)]
                    if r[col]:
                        nxt.append(r)
                    elif any(r):
                        rest.append(r)
            active = nxt
        if not active:
            continue
        p = active[0] if active[0][col] > 0 else [-a for a in active[0]]
        for i, r in enumerate(out):
            q = r[col] // p[col]
            if q:
                out[i] = [a - q * b for a, b in zip(r, p)]
        out.append(p)
    return out


def kernel_int(rows: list[list[int]]) -> list[list[int]]:
    """HNF basis of the left integer kernel {v : v * M = 0} of the matrix with the given rows.

    In the HNF of [M | I] the rows that vanish on M's columns come last, and
    their identity part is already the canonical HNF of the kernel.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    n = len(rows)
    aug = [list(r) + [int(j == i) for j in range(n)] for i, r in enumerate(rows)]
    return [r[ncols:] for r in hnf_int(aug) if not any(r[:ncols])]


def rank_and_pivots_int(rows: list[list[int]]) -> tuple[int, list[int]]:
    """Rank of the row space and its pivot columns, read off the integer HNF."""
    h = hnf_int(rows)
    return len(h), [next(c for c, a in enumerate(r) if a) for r in h]


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
