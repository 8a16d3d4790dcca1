"""The integer HNF against a column-sweep HNF, and the kernel and rank read
off the one integer echelon form against the elimination routines they
replaced: a row-tracked HNF for the kernel and Fraction Gauss elimination
for rank and pivots."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from quatheta.linalg import hnf_int, kernel_int, rank_and_pivots_int


def _reference_hnf(rows):
    """Row HNF by column sweeps: reduce every row with a nonzero entry in the
    column by the one of least absolute value there, until one is left."""
    rest = [list(r) for r in rows if any(r)]
    out = []
    for col in range(len(rest[0]) if rest else 0):
        active = [r for r in rest if r[col]]
        rest = [r for r in rest if not r[col]]
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


def _reference_kernel(rows):
    """HNF of the left kernel from a separate HNF that applies its row ops to [M | I]."""
    n = len(rows)
    if n == 0:
        return []
    ncols = len(rows[0])
    m = [list(rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
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
    return hnf_int([r[ncols:] for r in m if not any(r[:ncols])])


def _reference_rank_and_pivots(rows):
    """Gaussian elimination over Q."""
    m = [[Fraction(a) for a in r] for r in rows]
    ncols = len(m[0]) if m else 0
    rank, pivots = 0, []
    for col in range(ncols):
        sel = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col] != 0:
                c = m[i][col] / m[rank][col]
                m[i] = [a - c * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    return rank, pivots


@st.composite
def integer_matrices(draw):
    """Random integer matrices, often rank deficient: extra rows are integer
    combinations of the first ones, zero rows and zero columns appear."""
    ncols = draw(st.integers(1, 7))
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(ncols)])
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    if draw(st.booleans()):
        zero_col = draw(st.integers(0, ncols - 1))
        rows = [r[:zero_col] + [0] + r[zero_col + 1 :] for r in rows]
    return draw(st.permutations(rows))


@st.composite
def tall_matrices(draw):
    """16 x 4 and 32 x 8 integer matrices with entries up to 2^40: drawn rows
    (full rank), or rank deficient with the later rows combinations of a few."""
    nrows, ncols = draw(st.sampled_from([(16, 4), (32, 8)]))
    row = st.lists(st.integers(-(2**40), 2**40), min_size=ncols, max_size=ncols)
    if draw(st.booleans()):
        return draw(st.lists(row, min_size=nrows, max_size=nrows))
    base = draw(st.lists(row, max_size=ncols - 1))
    coeffs = st.lists(st.integers(-5, 5), min_size=len(base), max_size=len(base))
    rows = list(base)
    for _ in range(nrows - len(base)):
        cs = draw(coeffs)
        rows.append([sum(c * r[k] for c, r in zip(cs, base)) for k in range(ncols)])
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(st.one_of(integer_matrices(), tall_matrices()))
def test_hnf_int_matches_column_sweep(rows):
    h = hnf_int(rows)
    assert h == _reference_hnf(rows)
    for i, r in enumerate(h):  # positive pivots, reduced above, zero below
        c = next(k for k, a in enumerate(r) if a)
        assert r[c] > 0
        assert all(0 <= h[j][c] < r[c] for j in range(i))
        assert all(not h[j][c] for j in range(i + 1, len(h)))


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_kernel_int_matches_tracked_hnf(rows):
    ker = kernel_int(rows)
    assert ker == _reference_kernel(rows)
    assert all(sum(v[i] * rows[i][k] for i in range(len(rows))) == 0 for v in ker for k in range(len(rows[0])))


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_rank_and_pivots_int_match_rational_elimination(rows):
    assert rank_and_pivots_int(rows) == _reference_rank_and_pivots(rows)


def test_empty_and_zero_matrices():
    assert kernel_int([]) == []
    assert rank_and_pivots_int([]) == (0, [])
    assert rank_and_pivots_int([[0, 0], [0, 0]]) == (0, [])
    assert kernel_int([[0, 0], [0, 0]]) == [[1, 0], [0, 1]]
