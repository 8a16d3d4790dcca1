"""Small exact linear algebra helpers: integer HNF/kernel, fraction-free rank,
and generic determinants/inverses over field-element entries."""

from __future__ import annotations

from fractions import Fraction


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
    """Basis of the left integer kernel {v : v * M = 0} of the matrix with the given rows."""
    n = len(rows)
    if n == 0:
        return []
    ncols = len(rows[0])
    # Augment with an identity to track row transformations through HNF.
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    m = _hnf_tracked(aug, ncols)
    ker = [r[ncols:] for r in m if not any(r[:ncols])]
    return hnf_int(ker)


def _hnf_tracked(m: list[list[int]], ncols: int) -> list[list[int]]:
    """HNF on the first ncols columns, applying all row ops to the full rows."""
    piv_row = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(piv_row, len(m)) if m[i][col] != 0]
            if not nz:
                break
            if len(nz) == 1:
                i = nz[0]
                m[piv_row], m[i] = m[i], m[piv_row]
                break
            i, j = nz[0], nz[1]
            if abs(m[i][col]) < abs(m[j][col]):
                i, j = j, i
            q = m[i][col] // m[j][col]
            m[i] = [a - q * b for a, b in zip(m[i], m[j])]
        if piv_row < len(m) and m[piv_row][col] != 0:
            piv_row += 1
    return m


def rank_and_pivots_int(rows: list[list[int]]) -> tuple[int, list[int]]:
    """Exact rank and pivot-column indices via fraction-free Gaussian elimination."""
    m = [[Fraction(a) for a in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    pivots = []
    for col in range(ncols):
        sel = None
        for i in range(rank, nrows):
            if m[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        pv = m[rank][col]
        for i in range(rank + 1, nrows):
            if m[i][col] != 0:
                c = m[i][col] / pv
                m[i] = [a - c * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rank, pivots


def det_generic(rows, zero):
    """Determinant by cofactor expansion; fine for the 4x4 matrices used here."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = zero
    for j in range(n):
        a = rows[0][j]
        if hasattr(a, "is_zero") and a.is_zero():
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = a * det_generic(minor, zero)
        out = out - term if j % 2 else out + term
    return out


def inverse_generic(rows, zero, one):
    """Inverse of a small square matrix over a field-like element type."""
    n = len(rows)
    m = [list(r) + [one if j == i else zero for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        sel = None
        for i in range(col, n):
            if not m[i][col].is_zero():
                sel = i
                break
        if sel is None:
            raise ZeroDivisionError("singular matrix")
        m[col], m[sel] = m[sel], m[col]
        pv = m[col][col]
        m[col] = [a / pv for a in m[col]]
        for i in range(n):
            if i != col and not m[i][col].is_zero():
                c = m[i][col]
                m[i] = [a - c * b for a, b in zip(m[i], m[col])]
    return [r[n:] for r in m]


def residue_nullspace(F, rows: list[list]) -> list[list]:
    """Basis of the right nullspace of a matrix over a ResidueField.

    rows are lists of residue-field elements; returns basis vectors of
    {v : M v = 0} in reduced form, deterministic.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    m = [list(r) for r in rows]
    pivots = {}
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, nrows):
            if m[i][col] != F.zero:
                sel = i
                break
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        inv = F.inv(m[rank][col])
        m[rank] = [F.mul(inv, a) for a in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col] != F.zero:
                c = m[i][col]
                m[i] = [F.sub(a, F.mul(c, b)) for a, b in zip(m[i], m[rank])]
        pivots[col] = rank
        rank += 1
    basis = []
    for col in range(ncols):
        if col in pivots:
            continue
        v = [F.zero] * ncols
        v[col] = F.one
        for pc, pr in pivots.items():
            v[pc] = F.neg(m[pr][col])
        basis.append(v)
    return basis


def residue_rowreduce(F, rows: list[list]) -> list[list]:
    """Reduced row echelon form over a ResidueField; zero rows dropped."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, nrows):
            if m[i][col] != F.zero:
                sel = i
                break
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        inv = F.inv(m[rank][col])
        m[rank] = [F.mul(inv, a) for a in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col] != F.zero:
                c = m[i][col]
                m[i] = [F.sub(a, F.mul(c, b)) for a, b in zip(m[i], m[rank])]
        rank += 1
    return m[:rank]
