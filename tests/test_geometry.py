"""Geometry primitives: intersection, containment, splits, projection."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxpierce import (
    Box,
    BoxFamily,
    Interval,
    Point,
    TwoLines,
    intersects,
    lift_points,
    project_onto_hyperplane,
    split_four,
    split_three,
)

from _helpers import corner_candidate_intersects, family, family_1d


def box2(xlo, xhi, ylo, yhi):
    return Box.from_bounds(((xlo, xhi), (ylo, yhi)))


# --- construction invariants -------------------------------------------------

def test_interval_rejects_reversed():
    with pytest.raises(ValueError):
        Interval(3, 1)


def test_interval_degenerate_allowed():
    iv = Interval(4, 4)
    assert iv.contains(4) and not iv.contains(5)


def test_interval_rejects_non_integers():
    with pytest.raises(ValueError):
        Interval(0.5, 2)
    with pytest.raises(ValueError):
        Interval(True, 2)


def test_family_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="box 1"):
        BoxFamily(2, (box2(0, 1, 0, 1), Box.from_bounds(((0, 1),))))


def test_box_rejects_sides_that_are_not_intervals():
    with pytest.raises(ValueError, match="side 0"):
        Box((1, 2))
    with pytest.raises(ValueError, match="side 1"):
        Box((Interval(0, 1), (2, 3)))


def test_family_rejects_members_that_are_not_boxes():
    with pytest.raises(ValueError, match="box 0"):
        BoxFamily(2, [1, 2])
    with pytest.raises(ValueError, match="box 1"):
        BoxFamily(1, [Box.from_bounds(((0, 1),)), Interval(0, 1)])
    for member in (1, Interval(0, 1)):  # `of` infers no dimension from a non-box
        with pytest.raises(ValueError, match=re.escape(f"box 0 must be a Box, got {member!r}")):
            BoxFamily.of([member])


def test_family_two_line_invariant_names_offender():
    boxes = (box2(0, 1, 0, 1), box2(0, 1, 5, 6))
    with pytest.raises(ValueError, match="box 1"):
        BoxFamily(2, boxes, TwoLines(axis=1, c1=0, c2=2))


def test_family_refuses_lines_that_are_not_two_lines():
    for lines in ((1, 0, 2), "x", 5):
        message = re.escape(f"lines must be a TwoLines, got {lines!r}")
        with pytest.raises(ValueError, match=message):
            BoxFamily.of([box2(0, 1, 0, 1)], lines=lines)
        with pytest.raises(ValueError, match=message):
            BoxFamily(2, (box2(0, 1, 0, 1),), lines)


# --- intersects / contains ---------------------------------------------------

def test_intersects_shared_closed_edge():
    assert intersects(box2(0, 1, 0, 1), box2(1, 2, 0, 1))


def test_intersects_separated():
    assert not intersects(box2(0, 1, 0, 1), box2(2, 3, 0, 1))


def test_intersects_self():
    b = box2(0, 1, 0, 1)
    assert intersects(b, b)


def test_intersects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        intersects(box2(0, 1, 0, 1), Box.from_bounds(((0, 1),)))


def test_contains_interior_corner_outside():
    b = box2(0, 2, 0, 2)
    assert b.contains(Point((1, 1)))
    assert b.contains(Point((0, 2)))
    assert not b.contains(Point((3, 1)))


boxes_st = st.integers(1, 3).flatmap(
    lambda d: st.tuples(*[
        st.tuples(st.integers(-6, 6), st.integers(0, 5)) for _ in range(d)
    ]).map(lambda sides: Box.from_bounds([(lo, lo + w) for lo, w in sides]))
)


@given(boxes_st, boxes_st)
def test_intersects_matches_corner_candidates(p, q):
    if p.dim != q.dim:
        return
    assert intersects(p, q) == corner_candidate_intersects(p, q)
    assert intersects(p, q) == intersects(q, p)


@given(boxes_st)
def test_intersects_reflexive(b):
    assert intersects(b, b)


# --- split_three -------------------------------------------------------------

def test_split_three_scaled_midpoint():
    f = family_1d([(0, 10), (20, 30), (10, 20)])
    minus, zero, plus = split_three(f, 0, 15)
    assert [b.bounds() for b in minus] == [((0, 10),)]
    assert [b.bounds() for b in plus] == [((20, 30),)]
    assert [b.bounds() for b in zero] == [((10, 20),)]


def test_split_three_empty_family():
    f = BoxFamily(1, ())
    parts = split_three(f, 0, 5)
    assert all(len(p) == 0 for p in parts)


def test_split_three_all_contain():
    f = family_1d([(0, 5), (2, 8), (4, 4)])
    minus, zero, plus = split_three(f, 0, 4)
    assert len(minus) == 0 and len(plus) == 0 and len(zero) == 3


# --- split_four --------------------------------------------------------------

def test_split_four_hand_evaluated():
    f = family_1d([(0, 1), (2, 3), (5, 6), (3, 5)])
    parts = split_four(f, 0, 2, 4)
    assert [b.bounds() for b in parts.minus] == [((0, 1),)]
    assert len(parts.plusminus) == 0
    assert [b.bounds() for b in parts.plus] == [((5, 6),)]
    assert [b.bounds() for b in parts.zero] == [((2, 3),), ((3, 5),)]


def test_split_four_equal_thresholds_no_middle():
    f = family_1d([(0, 2), (1, 3), (3, 8), (4, 9)])
    parts = split_four(f, 0, 3, 3)
    assert len(parts.plusminus) == 0


def test_split_four_empty_family():
    parts = split_four(BoxFamily(2, ()), 0, 1, 2)
    assert all(len(p) == 0 for p in (parts.minus, parts.plusminus, parts.plus, parts.zero))


def test_split_four_rejects_reversed_thresholds():
    with pytest.raises(ValueError):
        split_four(family_1d([(0, 1)]), 0, 4, 2)


def test_public_splits_and_projection_check_axis_and_coordinates():
    f = family([((0, 2), (0, 2))])
    for bad, match in ((lambda: split_three(f, 2, 1), "axis 2 out of range"),
                       (lambda: split_four(f, -1, 1, 1), "axis -1 out of range"),
                       (lambda: split_three(f, 0, 2**63), "split coordinate a"),
                       (lambda: split_four(f, 0, 0, 2**63), "split coordinate b"),
                       (lambda: project_onto_hyperplane(f, 2, 1), "axis 2 out of range")):
        with pytest.raises(ValueError, match=match):
            bad()


families_st = st.integers(1, 2).flatmap(
    lambda d: st.lists(
        st.tuples(*[
            st.tuples(st.integers(-8, 8), st.integers(0, 6)) for _ in range(d)
        ]).map(lambda sides: Box.from_bounds([(lo, lo + w) for lo, w in sides])),
        max_size=8,
    ).map(lambda bs: BoxFamily.of(bs, dim=d))
)


@settings(max_examples=200)
@given(families_st, st.integers(-9, 9))
def test_split_three_partitions(f, x):
    minus, zero, plus = split_three(f, 0, x)
    assert len(minus) + len(zero) + len(plus) == len(f)
    recombined = sorted(b.bounds() for part in (minus, zero, plus) for b in part)
    assert recombined == sorted(b.bounds() for b in f)
    for b in minus:
        assert b.sides[0].hi < x
    for b in plus:
        assert b.sides[0].lo > x
    for b in zero:
        assert b.sides[0].contains(x)


@settings(max_examples=200)
@given(families_st, st.integers(-9, 9), st.integers(0, 6))
def test_split_four_partitions_and_zero_meets_a_cut(f, a, width):
    b_coord = a + width
    parts = split_four(f, 0, a, b_coord)
    sizes = [len(parts.minus), len(parts.plusminus), len(parts.plus), len(parts.zero)]
    assert sum(sizes) == len(f)
    recombined = sorted(
        bx.bounds()
        for part in (parts.minus, parts.plusminus, parts.plus, parts.zero)
        for bx in part
    )
    assert recombined == sorted(bx.bounds() for bx in f)
    for bx in parts.zero:
        iv = bx.sides[0]
        cut = a if iv.contains(a) else b_coord
        witness = Point((cut,) + tuple(s.lo for s in bx.sides[1:]))
        assert bx.contains(witness)


def test_split_preserves_input_order():
    f = family_1d([(0, 9), (1, 8), (2, 7)])
    _, zero, _ = split_three(f, 0, 5)
    assert [b.bounds() for b in zero] == [((0, 9),), ((1, 8),), ((2, 7),)]


# --- projection and lifting --------------------------------------------------

def test_project_single_box():
    f = family([((0, 2), (1, 3))])
    proj = project_onto_hyperplane(f, 0, 1)
    assert proj.dim == 1
    assert [b.bounds() for b in proj] == [((1, 3),)]


def test_project_preserves_intersections():
    f = family([((0, 2), (0, 4)), ((1, 3), (5, 9))])
    proj = project_onto_hyperplane(f, 0, 1)
    assert len(proj) == 2
    assert not intersects(proj.boxes[0], proj.boxes[1])


def test_project_box_missing_hyperplane():
    f = family([((0, 2), (1, 3)), ((5, 7), (1, 3))])
    with pytest.raises(ValueError, match="box 1"):
        project_onto_hyperplane(f, 0, 1)


def test_project_rejects_1d():
    with pytest.raises(ValueError):
        project_onto_hyperplane(family_1d([(0, 2)]), 0, 1)


def test_lift_points_roundtrip():
    pts = [Point((3,)), Point((7,))]
    lifted = lift_points(pts, 0, 42)
    assert [p.coords for p in lifted] == [(42, 3), (42, 7)]
    lifted_mid = lift_points([Point((1, 2))], 1, 9)
    assert lifted_mid[0].coords == (1, 9, 2)
