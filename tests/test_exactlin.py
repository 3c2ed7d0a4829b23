from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectrep.exactlin import (determinant, mat_vec, random_unimodular, rank,
                              rational_rref, solve_exact)

small_int = st.integers(min_value=-9, max_value=9)


def square(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n),
                    min_size=n, max_size=n)


def test_rank_basics():
    assert rank([[int(i == j) for j in range(4)] for i in range(4)]) == 4
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([]) == 0


def test_determinant_known():
    assert determinant([[2, 0], [0, 3]]) == 6
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_random_unimodular_det(n, seed):
    m = random_unimodular(n, seed)
    assert determinant(m) in (1, -1)
    assert all(abs(e) <= 8 for row in m for e in row)


def test_random_unimodular_deterministic():
    assert random_unimodular(4, 123) == random_unimodular(4, 123)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6),
       st.data())
def test_solve_exact_roundtrip(n, seed, data):
    a = random_unimodular(n, seed)
    x = data.draw(st.lists(small_int, min_size=n, max_size=n))
    b = mat_vec(a, x)
    got = solve_exact(a, b)
    assert got == tuple(Fraction(e) for e in x)


def test_solve_exact_inconsistent():
    assert solve_exact([[1, 1], [1, 1]], [1, 2]) is None


def test_solve_exact_underdetermined_free_vars_zero():
    # one equation, two unknowns: the free variable is pinned to zero
    assert solve_exact([[2, 4]], [6]) == (Fraction(3), Fraction(0))


@given(square(3), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_rref_canonical_under_row_shuffle(rows, rng):
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert rational_rref(rows) == rational_rref(shuffled)

