"""Exact oracles against independent brute-force enumeration."""

import hashlib
import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxpierce import (
    Box,
    BoxFamily,
    CapExceeded,
    RandomSpec,
    candidate_grid,
    common_point,
    gen_extremal_two_line,
    gen_gadget,
    gen_random,
    intersects,
    nu_exact,
    tau_exact,
)
from boxpierce import geometry, oracles
from boxpierce.oracles import _adjacency, _helly_scan, _max_disjoint

from _helpers import (
    brute_force_nu,
    brute_force_nu_witness,
    brute_force_tau,
    families,
    family,
    family_1d,
    reference_tau,
    small_families,
)


# --- nu_exact ----------------------------------------------------------------

def test_nu_empty():
    assert nu_exact(BoxFamily(2, ())).nu == 0


def test_nu_single_box():
    res = nu_exact(family([((0, 1), (0, 1))]))
    assert res.nu == 1 and res.witness == (0,)


def test_nu_gadget_matches_exhaustive():
    g = gen_gadget()
    assert brute_force_nu(g) == 2
    assert nu_exact(g).nu == 2


def test_nu_witness_is_pairwise_disjoint():
    from boxpierce import intersects
    fam = gen_random(RandomSpec(n_boxes=9, coord_range=(0, 12), seed=5))
    res = nu_exact(fam)
    picked = [fam.boxes[i] for i in res.witness]
    assert len(picked) == res.nu
    for i in range(len(picked)):
        for j in range(i + 1, len(picked)):
            assert not intersects(picked[i], picked[j])


def test_nu_matches_exhaustive_on_random_families():
    for seed in range(60):
        fam = gen_random(RandomSpec(n_boxes=1 + seed % 9, coord_range=(0, 10), seed=seed))
        assert nu_exact(fam).nu == brute_force_nu(fam), f"seed {seed}"


@settings(max_examples=200, deadline=None)
@given(small_families)
def test_nu_witness_is_lexicographically_greatest_maximum(fam):
    assert nu_exact(fam).witness == brute_force_nu_witness(fam)


def test_nu_extremal_splits_into_components():
    # 40 disjoint gadgets, 100 boxes: one search over the whole family
    # would be exponential in the number of gadgets
    assert nu_exact(gen_extremal_two_line(40), cap=100).nu == 40


def test_nu_deep_component_needs_no_recursion():
    # one box meets 2,999 pairwise-disjoint ones: the search descends
    # 2,999 levels, far past Python's recursion limit
    boxes = [((0, 3 * 2999),)] + [((3 * i, 3 * i + 1),) for i in range(2999)]
    assert nu_exact(family(boxes), cap=3000).nu == 2999


@settings(max_examples=200, deadline=None)
@given(small_families)
def test_adjacency_matches_pairwise_intersection(fam):
    boxes = fam.boxes
    expected = [sum(1 << j for j in range(len(boxes)) if j != i and intersects(boxes[i], boxes[j]))
                for i in range(len(boxes))]
    assert _adjacency(boxes) == expected


@settings(max_examples=300, deadline=None)
@given(families(14), st.data())
def test_max_disjoint_is_exact_on_any_mask(fam, data):
    # threshold probes search prefixes of the boxes in end order, which are
    # not connected components; arbitrary masks cover every other shape
    boxes = list(fam.boxes)
    if data.draw(st.booleans(), label="prefix"):
        axis = data.draw(st.integers(0, fam.dim - 1), label="axis")
        end = (lambda b: b.sides[axis].hi) if data.draw(st.booleans(), label="left") else (
            lambda b: ~b.sides[axis].lo)
        boxes.sort(key=end)
        mask = (1 << data.draw(st.integers(0, len(boxes)), label="cut")) - 1
    else:
        mask = data.draw(st.integers(0, (1 << len(boxes)) - 1), label="mask")
    best = _max_disjoint(_adjacency(boxes), mask)
    chosen = [i for i in range(len(boxes)) if best >> i & 1]
    assert best & ~mask == 0
    assert not any(intersects(boxes[i], boxes[j]) for i, j in itertools.combinations(chosen, 2))
    inside = fam.replace_boxes(b for i, b in enumerate(boxes) if mask >> i & 1)
    assert len(chosen) == nu_exact(inside).nu


def test_nu_cap_refusal():
    fam = gen_random(RandomSpec(n_boxes=33, coord_range=(0, 50), seed=1))
    with pytest.raises(CapExceeded):
        nu_exact(fam)
    with pytest.raises(CapExceeded):
        nu_exact(gen_random(RandomSpec(n_boxes=5, seed=1)), cap=4)
    with pytest.raises(ValueError, match="non-negative"):
        nu_exact(gen_random(RandomSpec(n_boxes=5, seed=1)), cap=-1)


# --- candidate_grid ----------------------------------------------------------

def test_grid_single_box():
    pts = candidate_grid(family([((0, 1), (2, 3))]))
    assert [p.coords for p in pts] == [(0, 2)]


def test_grid_two_intervals():
    pts = candidate_grid(family_1d([(0, 2), (1, 3)]))
    assert [p.coords for p in pts] == [(0,), (1,)]


def test_grid_cardinality_bound():
    fam = gen_random(RandomSpec(n_boxes=7, coord_range=(0, 30), seed=3))
    assert len(candidate_grid(fam)) <= len(fam) ** 2


def test_grid_empty_family_rejected():
    with pytest.raises(ValueError):
        candidate_grid(BoxFamily(2, ()))


def test_grid_suffices_for_optimal_piercing():
    # sliding argument: restricting to the grid never raises tau
    for seed in range(30):
        fam = gen_random(RandomSpec(n_boxes=1 + seed % 7, coord_range=(0, 9), seed=100 + seed))
        exhaustive = brute_force_tau(fam)
        assert exhaustive is not None
        assert tau_exact(fam).tau == exhaustive


# --- tau_exact ---------------------------------------------------------------

def test_tau_single_box():
    assert tau_exact(family([((0, 1), (0, 1))])).tau == 1


def test_tau_disjoint_boxes_need_one_point_each():
    fam = family_1d([(0, 1), (3, 4), (6, 7), (9, 10)])
    assert tau_exact(fam).tau == 4


def test_tau_gadget_matches_exhaustive():
    g = gen_gadget()
    assert brute_force_tau(g, limit=3) == 3
    assert tau_exact(g).tau == 3


def test_tau_witness_hits_every_box():
    fam = gen_random(RandomSpec(n_boxes=10, coord_range=(0, 12), seed=17))
    res = tau_exact(fam)
    assert len(res.witness) == res.tau
    for b in fam.boxes:
        assert any(b.contains(p) for p in res.witness)


def test_tau_cap_refusal():
    fam = gen_random(RandomSpec(n_boxes=8, seed=2))
    with pytest.raises(CapExceeded):
        tau_exact(fam, cap=7)


def test_nu_le_tau():
    for seed in range(80):
        fam = gen_random(RandomSpec(n_boxes=1 + seed % 10, coord_range=(0, 15), seed=200 + seed))
        assert nu_exact(fam).nu <= tau_exact(fam).tau


def test_oracles_deterministic():
    fam = gen_random(RandomSpec(n_boxes=9, coord_range=(0, 10), seed=33))
    assert nu_exact(fam) == nu_exact(fam)
    assert tau_exact(fam) == tau_exact(fam)


def test_tau_deep_search_needs_no_recursion():
    # 400 pairwise-disjoint points: the search descends 400 levels, past the lowered limit
    fam = family_1d([(3 * i, 3 * i) for i in range(400)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        res = tau_exact(fam, cap=400)
    finally:
        sys.setrecursionlimit(limit)
    assert res.tau == 400
    assert [p.coords for p in res.witness] == [(3 * i,) for i in range(400)]


def dense_family(n: int, rng: random.Random) -> BoxFamily:
    """Boxes of side <= 15 inside [0, 75]^2, where the tau search branches most."""
    boxes = []
    for _ in range(n):
        x, y = rng.randint(0, 60), rng.randint(0, 60)
        boxes.append(Box.from_bounds(((x, x + rng.randint(0, 15)),
                                      (y, y + rng.randint(0, 15)))))
    return BoxFamily.of(boxes, dim=2)


# sha256 over (tau, witness coordinates) of every family in the sweep below
_TAU_SWEEP_SHA256 = "18a7dabca98768d8f3cb99944757fa34be444c7139145d1d79e5fcbab1322a92"


def test_tau_witnesses_are_pinned():
    rng = random.Random(19)
    fams = [dense_family(n, rng) for n, count in ((10, 60), (12, 40), (16, 6))
            for _ in range(count)]
    fams += [gen_random(RandomSpec(n_boxes=1 + s % 12, dim=1 + s % 3, coord_range=(0, 15),
                                   seed=s)) for s in range(120)]
    digest = hashlib.sha256()
    for fam in fams:
        res = tau_exact(fam, cap=len(fam))
        digest.update(repr((res.tau, [p.coords for p in res.witness])).encode())
    assert digest.hexdigest() == _TAU_SWEEP_SHA256


@settings(max_examples=300, deadline=None)
@given(st.one_of(families(9), families(9, starts=(0, 4), width=3)))
def test_tau_result_matches_the_point_grid_search(fam):
    # the same search over a grid of Points: equal tau and the same witness, point by point
    assert tau_exact(fam, cap=len(fam)) == reference_tau(fam)


def sparse_family(n: int, rng: random.Random) -> BoxFamily:
    """Boxes of side 10 in [0, 10^6]^2: pairwise disjoint, with distinct coordinates."""
    boxes = []
    for _ in range(n):
        x, y = rng.randrange(10**6), rng.randrange(10**6)
        boxes.append(Box.from_bounds(((x, x + 10), (y, y + 10))))
    return BoxFamily.of(boxes, dim=2)


def test_tau_builds_one_adjacency_and_a_point_per_witness_point(monkeypatch):
    calls = {"adjacency": 0, "point": 0}
    adjacency, point_init = oracles._adjacency, geometry.Point.__init__

    def counted_adjacency(boxes):
        calls["adjacency"] += 1
        return adjacency(boxes)

    def counted_point_init(self, coords):
        calls["point"] += 1
        point_init(self, coords)

    sparse = sparse_family(120, random.Random(120))
    # 120 distinct left endpoints per axis: a grid of 14,400 points
    assert all(len({b.sides[ax].lo for b in sparse.boxes}) == 120 for ax in range(2))
    fams = [gen_gadget(), gen_extremal_two_line(7), dense_family(12, random.Random(3)),
            gen_random(RandomSpec(n_boxes=9, dim=3, coord_range=(0, 6), seed=4)), sparse]
    monkeypatch.setattr(oracles, "_adjacency", counted_adjacency)
    monkeypatch.setattr(geometry.Point, "__init__", counted_point_init)
    for fam in fams:
        calls.update(adjacency=0, point=0)
        res = tau_exact(fam, cap=len(fam))
        assert calls == {"adjacency": 1, "point": res.tau}
    witness = repr([p.coords for p in res.witness]).encode()
    assert res.tau == 120
    assert hashlib.sha256(witness).hexdigest() == (
        "c9766e712ae599fa35b62fbdf34f47e4260a815929a9ca2fc20771e5d20b857f")


# --- common_point ------------------------------------------------------------

def test_common_point_two_boxes():
    p = common_point(family([((0, 2), (0, 2)), ((1, 3), (1, 3))]))
    assert p.coords == (1, 1)


def test_common_point_single_box():
    assert common_point(family([((5, 9), (2, 4))])).coords == (5, 2)


def test_common_point_disjoint_pair_reported():
    with pytest.raises(ValueError, match="0 and 1"):
        common_point(family_1d([(0, 1), (2, 3)]))


def test_common_point_names_the_first_box_an_earlier_one_misses():
    # box 2 is the first that an earlier box misses; box 0 is the first earlier box it misses
    with pytest.raises(ValueError, match="boxes 0 and 2 are disjoint"):
        common_point(family_1d([(0, 5), (3, 4), (6, 7), (0, 1)]))


def test_common_point_lies_in_every_box():
    rng = random.Random(4)
    for _ in range(50):
        # boxes around a shared anchor are pairwise intersecting
        anchor = (rng.randint(0, 10), rng.randint(0, 10))
        boxes = []
        for _ in range(rng.randint(1, 8)):
            lo = [anchor[ax] - rng.randint(0, 5) for ax in range(2)]
            hi = [anchor[ax] + rng.randint(0, 5) for ax in range(2)]
            boxes.append(tuple(zip(lo, hi)))
        fam = family(boxes)
        p = common_point(fam)
        assert all(b.contains(p) for b in fam.boxes)


def test_helly_scan_takes_the_boxes_in_the_order_given():
    boxes = family_1d([(0, 5), (3, 4), (6, 7), (0, 1)]).boxes
    assert _helly_scan(boxes) == (2, [6])
    # positions are in the list scanned: reversed, [6, 7] is second and misses [0, 1]
    assert _helly_scan(boxes[::-1]) == (1, [6])
    assert _helly_scan(boxes[:2]) == (None, [3])


@settings(max_examples=200, deadline=None)
@given(small_families.filter(len))
def test_common_point_or_disjoint_pair(fam):
    boxes = fam.boxes
    disjoint = {(i, j) for i, j in itertools.combinations(range(len(boxes)), 2)
                if not intersects(boxes[i], boxes[j])}
    if not disjoint:
        p = common_point(fam)
        assert all(b.contains(p) for b in boxes)
        return
    with pytest.raises(ValueError) as exc:
        common_point(fam)
    named = re.search(r"boxes (\d+) and (\d+)", str(exc.value))
    assert (int(named[1]), int(named[2])) in disjoint
