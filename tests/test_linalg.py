"""Integer kernel and rank read off the one integer HNF, against the
elimination routines they replaced: a row-tracked HNF for the kernel and
Fraction Gauss elimination for rank and pivots."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from quatheta.linalg import hnf_int, kernel_int, rank_and_pivots_int


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
