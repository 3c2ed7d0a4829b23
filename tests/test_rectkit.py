from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectrep import (RectCertificate, WeightMultiset, automorphism_order,
                     detect_rectangular, detect_rectangular_points,
                     from_rational_points, is_hypercubic, lengths,
                     midpoint_set, transform, translate, verify_certificate,
                     with_ambient_padding)
from rectrep.exactlin import mat_vec, random_unimodular

from oracles import (box_symmetries_bruteforce,
                     detect_rectangular_points_quadratic, grid_rect_oracle,
                     random_symmetric_sets, symmetric_sets)


def standard_box(degrees):
    return [p for p in product(*(range(-d, d + 1, 2) for d in degrees))]


def test_multiset_validation():
    with pytest.raises(ValueError, match="duplicate"):
        WeightMultiset(1, (((0,), 1), ((0,), 2)))
    with pytest.raises(ValueError, match="dimension"):
        WeightMultiset(2, (((0,), 1),))
    with pytest.raises(ValueError, match="positive"):
        WeightMultiset(1, (((0,), 0),))
    with pytest.raises(ValueError, match="denominator"):
        WeightMultiset(1, (((0,), 1),), 0)


def test_from_rational_points_scales():
    s = from_rational_points([(Fraction(1, 2), Fraction(-1, 2))], 2)
    assert s.denominator == 2
    assert s.points == (((1, -1), 1),)
    assert s.rational_points == {(Fraction(1, 2), Fraction(-1, 2))}


def test_detect_degenerate_inputs():
    assert detect_rectangular_points([], 2) is None
    cert = detect_rectangular_points([(0, 0)], 2)
    assert cert is not None and cert.degrees == ()
    assert lengths(cert) == ()


degree_lists = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3)


@given(degree_lists, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_detect_recovers_transformed_boxes(degrees, seed):
    n = len(degrees)
    m = random_unimodular(n, seed)
    pts = {mat_vec(m, p) for p in standard_box(degrees)}
    cert = detect_rectangular_points(pts, n)
    assert cert is not None
    assert lengths(cert) == tuple(sorted(d + 1 for d in degrees))
    s = WeightMultiset(n, tuple((p, 1) for p in pts))
    assert verify_certificate(s, cert)


@given(degree_lists, st.integers(min_value=0, max_value=10**6), st.data())
@settings(max_examples=100, deadline=None)
def test_detect_rejects_translates(degrees, seed, data):
    n = len(degrees)
    shift = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)
                      .filter(lambda v: any(v)))
    m = random_unimodular(n, seed)
    pts = {tuple(x + s for x, s in zip(mat_vec(m, p), shift))
           for p in standard_box(degrees)}
    assert detect_rectangular_points(pts, n) is None


def test_detect_rejects_multiplicity():
    s = WeightMultiset(1, (((-1,), 1), ((1,), 2)))
    assert detect_rectangular(s) is None


def test_detect_rejects_near_boxes():
    # box with one point removed / one extra point
    pts = set(standard_box([2, 2]))
    assert detect_rectangular_points(pts - {(0, 0)}, 2) is None
    assert detect_rectangular_points(pts | {(4, 4), (-4, -4)}, 2) is None


def test_transform_translate_roundtrip():
    s = WeightMultiset(2, tuple((p, 1) for p in standard_box([1, 1])))
    moved = translate(s, (2, -1))
    assert translate(moved, (-2, 1)) == s
    flipped = transform(s, ((0, 1), (1, 0)))
    assert flipped.support == s.support


def test_midpoint_set_of_box():
    s = WeightMultiset(2, tuple((p, 1) for p in standard_box([2, 2])))
    mid = midpoint_set(s)
    # midpoints of Z_d fill the odd steps too: 2d+1 values per axis
    assert mid.mass == 5 * 5
    assert mid.denominator == 2


def test_certificate_validation_and_padding():
    with pytest.raises(ValueError):
        RectCertificate((0,), ((1,),), (0,))
    cert = detect_rectangular_points(standard_box([2]), 1)
    padded = with_ambient_padding(cert, 3)
    assert lengths(padded) == (1, 1, 3)
    assert is_hypercubic(padded) is None
    with pytest.raises(ValueError):
        with_ambient_padding(cert, 0)


def test_verify_certificate_rejects_forgeries():
    pts = standard_box([2, 2])
    s = WeightMultiset(2, tuple((p, 1) for p in pts))
    good = detect_rectangular_points(pts, 2)
    assert verify_certificate(s, good)
    # wrong vertex breaks the centering identity
    bad = RectCertificate((0, 0), good.edges, good.degrees)
    assert not verify_certificate(s, bad)
    # dependent edges are rejected even with matching mass
    bad2 = RectCertificate(good.vertex, (good.edges[0], good.edges[0]),
                           good.degrees)
    assert not verify_certificate(s, bad2)
    # a certificate that rebuilds an off-centre box exactly
    shifted = WeightMultiset(1, (((0,), 1), ((1,), 1)))
    assert not verify_certificate(shifted,
                                  RectCertificate((0,), ((1,),), (1,)))
    # a centred box that covers only part of the points
    line = WeightMultiset(1, tuple(((x,), 1) for x in (-1, 0, 1)))
    assert not verify_certificate(line, RectCertificate((-1,), ((2,),), (1,)))


def test_is_hypercubic():
    cert = detect_rectangular_points(standard_box([1, 1, 1]), 3)
    assert is_hypercubic(cert) == 2
    cert = detect_rectangular_points(standard_box([1, 2]), 2)
    assert is_hypercubic(cert) is None


@pytest.mark.parametrize("ls", [(2,), (9,), (2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_automorphism_order_matches_bruteforce(ls):
    assert automorphism_order(ls) == box_symmetries_bruteforce(ls)


def test_automorphism_order_rejects_short_lengths():
    with pytest.raises(ValueError):
        automorphism_order((1, 2))


def test_detector_agrees_with_oracle_small_window():
    # fast version of the exhaustive sweep: 5x5 window, up to 8 points
    sets, lengths_of = grid_rect_oracle(half=2, max_points=8)
    for s in symmetric_sets(half=2, max_points=8):
        cert = detect_rectangular_points(s, 2)
        assert (cert is not None) == (s in sets), s
        if cert is not None:
            assert lengths(cert) == tuple(sorted(lengths_of[s])), s


def test_greedy_detector_matches_quadratic_small_window():
    accepted = 0
    for s in symmetric_sets(half=2, max_points=8):
        cert = detect_rectangular_points(s, 2)
        assert cert == detect_rectangular_points_quadratic(s, 2), sorted(s)
        accepted += cert is not None
    assert accepted > 0


@pytest.mark.parametrize("dim", [3, 4])
def test_greedy_detector_matches_quadratic_random(dim):
    accepted = rejected = 0
    for s in random_symmetric_sets(dim, 400, seed=dim):
        cert = detect_rectangular_points(s, dim)
        assert cert == detect_rectangular_points_quadratic(s, dim), sorted(s)
        if cert is None:
            rejected += 1
        else:
            accepted += 1
    assert accepted >= 100 and rejected >= 100
