"""Generators: gadget structure, extremal scaling, random reproducibility."""

import itertools
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxpierce import (
    Box,
    BoxFamily,
    Interval,
    RandomSpec,
    TwoLines,
    gen_extremal_two_line,
    gen_gadget,
    gen_random,
    instance_to_json,
    intersects,
    nu_exact,
    tau_exact,
)

from _helpers import brute_force_nu, brute_force_tau


# --- gadget ------------------------------------------------------------------

def test_gadget_is_a_five_cycle():
    g = gen_gadget()
    assert len(g) == 5
    edges = {(i, j) for i in range(5) for j in range(i + 1, 5)
             if intersects(g.boxes[i], g.boxes[j])}
    assert edges == {(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)}


def test_gadget_oracle_verified():
    g = gen_gadget()
    assert brute_force_nu(g) == 2
    assert nu_exact(g).nu == 2
    assert brute_force_tau(g, limit=3) == 3
    assert tau_exact(g).tau == 3


def test_gadget_two_line_condition():
    g = gen_gadget()
    assert g.lines is not None and (g.lines.c1, g.lines.c2) == (0, 2)
    for b in g.boxes:
        iv = b.sides[1]
        assert iv.contains(0) or iv.contains(2)


# --- extremal families ---------------------------------------------------------

def test_extremal_n1_single_box():
    f = gen_extremal_two_line(1)
    assert len(f) == 1
    assert nu_exact(f).nu == 1 and tau_exact(f).tau == 1


def test_extremal_n2_is_gadget():
    f = gen_extremal_two_line(2)
    assert [b.bounds() for b in f] == [b.bounds() for b in gen_gadget()]
    assert tau_exact(f).tau == 3


def test_extremal_n4_two_copies():
    f = gen_extremal_two_line(4)
    assert len(f) == 10
    assert nu_exact(f).nu == 4
    assert tau_exact(f).tau == 6


def test_extremal_two_line_condition_holds():
    for n in range(1, 9):
        f = gen_extremal_two_line(n)
        for b in f.boxes:
            iv = b.sides[1]
            assert iv.contains(0) or iv.contains(2)


def test_extremal_copies_pairwise_disjoint():
    f = gen_extremal_two_line(6)
    for i, j in itertools.combinations(range(len(f)), 2):
        if i // 5 != j // 5:  # boxes of different copies
            assert not intersects(f.boxes[i], f.boxes[j])


def test_extremal_rejects_zero():
    with pytest.raises(ValueError):
        gen_extremal_two_line(0)


# --- random ---------------------------------------------------------------------

def test_random_same_seed_identical():
    spec = RandomSpec(n_boxes=9, dim=2, coord_range=(0, 25), seed=11)
    assert gen_random(spec) == gen_random(spec)
    assert instance_to_json(gen_random(spec)) == instance_to_json(gen_random(spec))


def test_random_zero_boxes():
    f = gen_random(RandomSpec(n_boxes=0, seed=1))
    assert len(f) == 0


def test_random_two_line_invariant_by_construction():
    for seed in range(30):
        f = gen_random(RandomSpec(n_boxes=8, coord_range=(0, 18), seed=seed, two_line=True))
        ln = f.lines
        assert ln is not None
        for b in f.boxes:
            iv = b.sides[ln.axis]
            assert iv.contains(ln.c1) or iv.contains(ln.c2)


def test_random_two_line_requires_planar():
    with pytest.raises(ValueError):
        RandomSpec(n_boxes=3, dim=3, two_line=True)


@settings(max_examples=80)
@given(st.integers(0, 12), st.integers(1, 3), st.integers(0, 2**31))
def test_random_within_range_and_ordered(n_boxes, dim, seed):
    f = gen_random(RandomSpec(n_boxes=n_boxes, dim=dim, coord_range=(-5, 9), seed=seed))
    assert len(f) == n_boxes and f.dim == dim
    for b in f.boxes:
        for iv in b.sides:
            assert -5 <= iv.lo <= iv.hi <= 9


# --- the draw rule ---------------------------------------------------------------

def _gen_random_by_randint(spec):
    """`gen_random` as a loop of `Random.randint` calls, the reference its draws must match."""
    rng = random.Random(spec.seed)
    lo, hi = spec.coord_range
    c1 = c2 = 0
    if spec.two_line:
        c1, c2 = spec.effective_lines()
    boxes = []
    for _ in range(spec.n_boxes):
        sides = []
        for _ax in range(spec.dim):
            u, v = rng.randint(lo, hi), rng.randint(lo, hi)
            if u > v:
                u, v = v, u
            sides.append(Interval(u, v))
        if spec.two_line:
            c = c1 if rng.randint(0, 1) == 0 else c2
            iv = sides[1]
            if iv.lo > c:
                iv = Interval(c, iv.hi)
            elif iv.hi < c:
                iv = Interval(iv.lo, c)
            sides[1] = iv
        boxes.append(Box(tuple(sides)))
    lines = TwoLines(axis=1, c1=c1, c2=c2) if spec.two_line else None
    return BoxFamily(spec.dim, tuple(boxes), lines)


# widths 1 and 2, powers of two (k = 11 at width 1024), negative and full 64-bit ranges
_RANGES = [(5, 5), (-3, -2), (0, 1023), (0, 1024), (0, 1022), (-1000, -1), (0, 20),
           (-2**63, 2**63 - 1), (2**63 - 3, 2**63 - 1)]


@pytest.mark.parametrize("coord_range", _RANGES)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_draws_match_randint(coord_range, dim):
    for seed in range(12):
        spec = RandomSpec(n_boxes=seed + 1, dim=dim, coord_range=coord_range, seed=seed)
        assert gen_random(spec) == _gen_random_by_randint(spec)


@pytest.mark.parametrize("coord_range", _RANGES)
def test_two_line_draws_match_randint(coord_range):
    lo, hi = coord_range
    for seed in range(12):
        for lines in (None, (hi, lo), (lo, lo), (hi, hi)):
            spec = RandomSpec(n_boxes=seed + 1, coord_range=coord_range, seed=seed,
                              two_line=True, lines=lines)
            assert gen_random(spec) == _gen_random_by_randint(spec)


@pytest.mark.parametrize("coord_range", [
    (0, 2**63), (-2**63 - 1, 0), (-2**64, 0), (0, 2**64),  # outside the 64-bit range
    (True, 5), (0, False),  # bools are not coordinates
    (0.5, 3.0), (0, 3.0),  # nor are floats
    (5, 1),  # empty
    (0, 5, 9),  # not a pair
    5, None,  # nor a sequence
])
def test_random_spec_refuses_ranges_outside_the_contract(coord_range):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no DeprecationWarning from inside `random`
        with pytest.raises(ValueError, match="coordinate range"):
            RandomSpec(n_boxes=3, coord_range=coord_range)


def test_random_spec_stores_its_pairs_as_tuples():
    # a spec built from lists hashes, equals the tuple form, and keeps no caller's list
    coord_range, lines = [0, 30], [20, 5]
    spec = RandomSpec(n_boxes=6, coord_range=coord_range, two_line=True, lines=lines, seed=4)
    same = RandomSpec(n_boxes=6, coord_range=(0, 30), two_line=True, lines=(20, 5), seed=4)
    assert spec == same and hash(spec) == hash(same)
    assert (spec.coord_range, spec.lines) == ((0, 30), (20, 5))
    coord_range.append(9)
    lines[0] = 99
    assert gen_random(spec) == gen_random(same)


@pytest.mark.parametrize("seed", [None, True, 1.5, "3"])
def test_random_spec_refuses_a_seed_that_is_not_an_integer(seed):
    # None would seed from the clock, so the same spec would draw a new family each call
    with pytest.raises(ValueError, match="seed"):
        RandomSpec(n_boxes=3, seed=seed)


@pytest.mark.parametrize("two_line", ["no", 1, 0, None, "", [False]])
def test_random_spec_refuses_a_two_line_that_is_not_a_bool(two_line):
    # "no" is truthy, so it would build a two-line family
    with pytest.raises(ValueError, match="two_line"):
        RandomSpec(n_boxes=5, two_line=two_line)


@pytest.mark.parametrize("lines", [(0.5, 3), (2, True), (-1, 5), (3, 21), (1, 2, 3), (4,), 5])
def test_random_spec_refuses_lines_outside_the_contract(lines):
    with pytest.raises(ValueError, match="lines"):
        RandomSpec(n_boxes=3, coord_range=(0, 20), two_line=True, lines=lines)
