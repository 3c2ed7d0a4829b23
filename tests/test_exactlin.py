from hypothesis import given, settings
from hypothesis import strategies as st

from rectrep.exactlin import (ENTRY_BOUND, random_unimodular, rank,
                              rational_rref)

small_int = st.integers(min_value=-9, max_value=9)


def square(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n),
                    min_size=n, max_size=n)


def test_rank_basics():
    assert rank([[int(i == j) for j in range(4)] for i in range(4)]) == 4
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([]) == 0


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_random_unimodular_det(n, seed):
    # an integer matrix has determinant +-1 iff its inverse is integral
    m = random_unimodular(n, seed)
    assert all(abs(e) <= ENTRY_BOUND for row in m for e in row)
    eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rows = rational_rref([list(row) + list(e) for row, e in zip(m, eye)])
    # row i is (k.e_i | k.M^-1_i) with k > 0, so k == 1 iff M^-1_i is integral
    assert [row[:n] for row in rows] == eye
    inv = [row[n:] for row in rows]
    assert [tuple(sum(a * inv[k][j] for k, a in enumerate(row))
                  for j in range(n)) for row in m] == eye


def test_random_unimodular_deterministic():
    assert random_unimodular(4, 123) == random_unimodular(4, 123)


@given(square(3), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_rref_canonical_under_row_shuffle(rows, rng):
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert rational_rref(rows) == rational_rref(shuffled)

