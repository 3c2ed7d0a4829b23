from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectrep import (SemisimpleAlgebra, SimpleType, cartan_matrix,
                     dominant_conjugate_coords, ortho_coords)
from rectrep.liealg import positive_root_coords, weyl_orbit_coords

TYPES = [SimpleType.parse(s) for s in
         ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4")]


def test_parse_and_order():
    t = SimpleType.parse("b3")
    assert (t.family, t.rank, t.label) == ("B", 3, "B3")
    assert SimpleType.parse("A1") < SimpleType.parse("A2") < SimpleType.parse("B2")


def test_d2_is_rejected_with_hint():
    with pytest.raises(ValueError, match="A1\\*A1"):
        SimpleType.parse("D2")


def test_algebra_parse_blocks():
    alg = SemisimpleAlgebra.parse("A1*B3*A1")
    assert [f.label for f in alg.factors] == ["A1", "B3", "A1"]
    assert alg.rank == 5
    assert [(r.start, r.stop) for r in alg.block_ranges()] == [(0, 1), (1, 4), (4, 5)]


def test_cartan_matrices():
    assert cartan_matrix(SimpleType.parse("A2")) == ((2, -1), (-1, 2))
    assert cartan_matrix(SimpleType.parse("B2")) == ((2, -1), (-2, 2))
    assert cartan_matrix(SimpleType.parse("G2")) == ((2, -3), (-1, 2))
    c4 = cartan_matrix(SimpleType.parse("C3"))
    assert c4[1][2] == -2 and c4[2][1] == -1
    d4 = cartan_matrix(SimpleType.parse("D4"))
    # the triple node is alpha_2 (0-indexed 1) in Bourbaki ordering
    assert sum(1 for j in range(4) if d4[1][j] == -1) == 3


@pytest.mark.parametrize("t", TYPES, ids=lambda t: t.label)
def test_cartan_matrix_shape(t):
    c = cartan_matrix(t)
    m = t.rank
    assert len(c) == m and all(len(row) == m for row in c)
    assert all(c[i][i] == 2 for i in range(m))
    for i in range(m):
        for j in range(m):
            if i != j:
                assert -3 <= c[i][j] <= 0
                assert (c[i][j] == 0) == (c[j][i] == 0)


POSITIVE_ROOT_COUNTS = {
    "A": lambda m: m * (m + 1) // 2,
    "B": lambda m: m * m,
    "C": lambda m: m * m,
    "D": lambda m: m * (m - 1),
    "G": lambda m: 6,
    "F": lambda m: 24,
}


@pytest.mark.parametrize("t", TYPES, ids=lambda t: t.label)
def test_positive_root_count(t):
    roots = positive_root_coords(t)
    assert len(roots) == POSITIVE_ROOT_COUNTS[t.family](t.rank)
    assert len(set(roots)) == len(roots)


WEYL_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48, "B4": 384,
    "C3": 48, "C4": 384, "D4": 192, "G2": 12, "F4": 1152,
}


@pytest.mark.parametrize("t", TYPES, ids=lambda t: t.label)
def test_weyl_group_order(t):
    # W acts simply transitively on the orbit of a regular weight, e.g. rho
    orbit = weyl_orbit_coords(SemisimpleAlgebra((t,)), (1,) * t.rank)
    assert len(orbit) == WEYL_ORDERS[t.label]


def _orbit(label, coords):
    return weyl_orbit_coords(SemisimpleAlgebra.parse(label), coords)


def test_weyl_orbit_sizes():
    assert len(_orbit("A2", (1, 0))) == 3
    assert len(_orbit("A2", (1, 1))) == 6
    assert len(_orbit("B2", (0, 1))) == 4
    assert len(_orbit("B3", (0, 0, 1))) == 8
    assert len(_orbit("D4", (1, 0, 0, 0))) == 8
    assert len(_orbit("G2", (1, 0))) == 6
    # orbits on a product algebra multiply
    assert len(_orbit("A1*B2", (1, 0, 1))) == 2 * 4


small_coords = st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=2)


@given(st.sampled_from(["A2", "B2", "G2"]), small_coords)
@settings(max_examples=150)
def test_dominant_conjugate_is_dominant_and_idempotent(label, coords):
    alg = SemisimpleAlgebra.parse(label)
    d = dominant_conjugate_coords(alg, tuple(coords))
    assert all(c >= 0 for c in d)
    assert dominant_conjugate_coords(alg, d) == d
    # the dominant conjugate stays in the Weyl orbit
    assert d in weyl_orbit_coords(alg, tuple(coords))


def test_ortho_coords_b_family():
    b3 = SimpleType.parse("B3")
    # std highest weight e_1; spin highest weight (e_1+e_2+e_3)/2
    assert ortho_coords(b3, (1, 0, 0)) == (1, 0, 0)
    assert ortho_coords(b3, (0, 0, 1)) == (Fraction(1, 2),) * 3


def test_ortho_coords_a_family_sum_zero():
    a3 = SimpleType.parse("A3")
    for coords in [(1, 0, 0), (0, 1, 0), (2, 0, 1)]:
        v = ortho_coords(a3, coords)
        assert len(v) == 4
        assert sum(v) == 0


def test_ortho_orbit_b3_std_is_signed_axes():
    b3 = SimpleType.parse("B3")
    orbit = weyl_orbit_coords(SemisimpleAlgebra((b3,)), (1, 0, 0))
    got = {ortho_coords(b3, w) for w in orbit}
    axes = set()
    for i in range(3):
        for s in (1, -1):
            axes.add(tuple(Fraction(s if j == i else 0) for j in range(3)))
    assert got == axes


def test_ortho_coords_d4_half_spins():
    d4 = SimpleType.parse("D4")
    h = Fraction(1, 2)
    assert ortho_coords(d4, (0, 0, 0, 1)) == (h, h, h, h)
    assert ortho_coords(d4, (0, 0, 1, 0)) == (h, h, h, -h)
