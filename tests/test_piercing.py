"""Piercing algorithms: worked examples, guarantees, recursion structure."""

import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxpierce import (
    Box,
    BoxFamily,
    RandomSpec,
    SplitPolicy,
    TwoLines,
    bound_prop1,
    bound_prop3,
    gen_extremal_two_line,
    gen_gadget,
    gen_random,
    h,
    nu_exact,
    pierce_ddim,
    pierce_intervals_1d,
    pierce_planar,
    pierce_two_lines,
    split_four,
    split_three,
    tau_exact,
)
from boxpierce import piercing
from boxpierce.oracles import _adjacency, _max_disjoint

from _helpers import families, family, family_1d, is_sound, small_families


# --- 1-d sweep ---------------------------------------------------------------

def test_1d_disjoint_intervals():
    rep = pierce_intervals_1d(family_1d([(0, 1), (2, 3), (4, 5)]))
    assert [p.coords[0] for p in rep.points] == [1, 3, 5]
    assert rep.guarantee == 3.0


def test_1d_common_overlap():
    rep = pierce_intervals_1d(family_1d([(0, 5), (1, 6), (2, 7)]))
    assert [p.coords[0] for p in rep.points] == [5]


def test_1d_two_stabs():
    fam = family_1d([(0, 2), (1, 3), (4, 6)])
    rep = pierce_intervals_1d(fam)
    assert rep.size == 2 == nu_exact(fam).nu
    assert is_sound(fam, rep.points)


def test_1d_rejects_planar_input():
    with pytest.raises(ValueError):
        pierce_intervals_1d(gen_gadget())


def test_1d_exactness_on_random_intervals():
    for seed in range(150):
        fam = gen_random(RandomSpec(n_boxes=1 + seed % 12, dim=1,
                                    coord_range=(0, 20), seed=seed))
        rep = pierce_intervals_1d(fam)
        assert is_sound(fam, rep.points)
        assert rep.size == nu_exact(fam).nu == tau_exact(fam).tau


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3)), max_size=14))
def test_1d_stabs_ignore_the_order_of_ties_in_hi(pairs):
    # the sweep sorts by hi alone; the stabs equal those of a (hi, lo, index) sort
    fam = family_1d([(lo, lo + w) for lo, w in pairs])
    stabs = []
    for iv in sorted((b.sides[0] for b in fam.boxes), key=lambda iv: (iv.hi, iv.lo)):
        if not stabs or iv.lo > stabs[-1]:
            stabs.append(iv.hi)
    assert [p.coords[0] for p in pierce_intervals_1d(fam).points] == stabs


# --- thresholds --------------------------------------------------------------

def threshold_low(f, axis, k):
    """The left-threshold search over right endpoints, None where none exists."""
    return piercing._threshold(f.boxes, [b.sides[axis].hi for b in f.boxes], k)


def threshold_hi(f, axis, m):
    """The right-threshold search over reflected left endpoints, None where none exists."""
    t = piercing._threshold(f.boxes, [~b.sides[axis].lo for b in f.boxes], m)
    return None if t is None else ~t


def test_threshold_first_right_endpoint():
    fam = family_1d([(0, 1), (2, 3), (4, 5)])
    assert threshold_low(fam, 0, 0) == 1


def test_threshold_second_prefix():
    fam = family_1d([(0, 1), (2, 3), (4, 5)])
    assert threshold_low(fam, 0, 1) == 3


def test_threshold_hi_mirror():
    fam = family_1d([(0, 1), (2, 3), (4, 5)])
    assert threshold_hi(fam, 0, 0) == 4


def test_threshold_error_when_packing_too_small():
    fam = family_1d([(0, 5), (1, 6)])
    assert threshold_low(fam, 0, 1) is None


def test_threshold_postcondition_on_random_families():
    for seed in range(60):
        fam = gen_random(RandomSpec(n_boxes=2 + seed % 9, coord_range=(0, 12),
                                    seed=700 + seed))
        n = nu_exact(fam).nu
        for k in range(n):
            a = threshold_low(fam, 0, k)
            strict_left = fam.replace_boxes(b for b in fam if b.sides[0].hi < a)
            right = fam.replace_boxes(b for b in fam if b.sides[0].lo > a)
            assert nu_exact(strict_left).nu <= k
            assert nu_exact(right).nu <= n - k - 1


def reference_threshold(f, axis, k):
    """Smallest right endpoint a with nu({r <= a}) >= k+1, by binary search with nu_exact."""
    rights = sorted({b.sides[axis].hi for b in f.boxes})

    def prefix_nu(x):
        return nu_exact(f.replace_boxes(b for b in f.boxes if b.sides[axis].hi <= x)).nu

    if not rights or prefix_nu(rights[-1]) <= k:
        return None
    lo, hi = 0, len(rights) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if prefix_nu(rights[mid]) >= k + 1:
            hi = mid
        else:
            lo = mid + 1
    return rights[lo]


def reference_threshold_hi(f, axis, m):
    """Largest left endpoint b with nu({l >= b}) >= m+1, by binary search with nu_exact."""
    lefts = sorted({b.sides[axis].lo for b in f.boxes})

    def suffix_nu(x):
        return nu_exact(f.replace_boxes(b for b in f.boxes if b.sides[axis].lo >= x)).nu

    if not lefts or suffix_nu(lefts[0]) <= m:
        return None
    lo, hi = 0, len(lefts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if suffix_nu(lefts[mid]) >= m + 1:
            lo = mid
        else:
            hi = mid - 1
    return lefts[lo]


@settings(max_examples=200, deadline=None)
@given(small_families, st.integers(0, 2), st.integers(0, 2))
def test_threshold_k1_helly_matches_nu_search(fam, axis, k):
    # k <= 1 take the no-search shortcuts, k == 2 the binary search
    axis %= fam.dim
    assert threshold_low(fam, axis, k) == reference_threshold(fam, axis, k)


@settings(max_examples=200, deadline=None)
@given(small_families, st.integers(0, 2), st.integers(0, 2))
def test_threshold_hi_mirror_matches_suffix_search(fam, axis, m):
    axis %= fam.dim
    assert threshold_hi(fam, axis, m) == reference_threshold_hi(fam, axis, m)


def test_threshold_probes_up_to_k1_need_no_oracle(monkeypatch):
    def no_oracle(f, cap):
        raise AssertionError("nu_exact called")

    monkeypatch.setattr(piercing, "nu_exact", no_oracle)
    for seed in range(40):
        fam = gen_random(RandomSpec(n_boxes=1 + seed % 12, dim=1 + seed % 3,
                                    coord_range=(0, 15), seed=1100 + seed))
        for axis in range(fam.dim):
            for k in (0, 1):
                assert threshold_low(fam, axis, k) == reference_threshold(fam, axis, k)
                assert threshold_hi(fam, axis, k) == reference_threshold_hi(fam, axis, k)


@settings(max_examples=200, deadline=None)
@given(families(14), st.integers(0, 2), st.integers(0, 4))
def test_threshold_probes_match_nu_search_up_to_k4(fam, axis, k):
    axis %= fam.dim
    assert threshold_low(fam, axis, k) == reference_threshold(fam, axis, k)


@settings(max_examples=200, deadline=None)
@given(families(14), st.integers(0, 2), st.integers(0, 13))
def test_packs_decides_prefix_packing(fam, axis, cut):
    # the prefix {r <= x} at the cut-th smallest right endpoint, as a probe sees it:
    # the adjacency is over the boxes in end order, so the prefix is a low-bit mask
    axis %= fam.dim
    boxes = sorted(fam.boxes, key=lambda b: b.sides[axis].hi)
    x = boxes[cut % len(boxes)].sides[axis].hi if boxes else 0
    size = sum(b.sides[axis].hi <= x for b in boxes)
    nu = nu_exact(fam.replace_boxes(boxes[:size])).nu
    adj = _adjacency(boxes)
    for t in range(1, size + 2):
        assert (_max_disjoint(adj, (1 << size) - 1, t).bit_count() >= t) == (nu >= t)


@settings(max_examples=300, deadline=None)
@given(families(14), st.data())
def test_packs_is_exact_in_any_order(fam, data):
    # a poor order weakens the greedy pass, so the search decides more
    order = data.draw(st.permutations(range(len(fam))))
    boxes = [fam.boxes[i] for i in order]
    mask = data.draw(st.integers(0, (1 << len(boxes)) - 1), label="mask")
    nu = nu_exact(fam.replace_boxes(b for i, b in enumerate(boxes) if mask >> i & 1)).nu
    adj = _adjacency(boxes)
    for t in range(1, mask.bit_count() + 2):
        assert (_max_disjoint(adj, mask, t).bit_count() >= t) == (nu >= t)


def test_probes_at_any_k_need_no_oracle_past_the_root(monkeypatch):
    real = piercing.nu_exact
    allowed = [0]

    def root_only(f, cap):
        if not allowed[0]:
            raise AssertionError("nu_exact called past the root")
        allowed[0] -= 1
        return real(f, cap)

    monkeypatch.setattr(piercing, "nu_exact", root_only)
    for seed in range(30):
        fam = gen_random(RandomSpec(n_boxes=8 + seed % 13, dim=2 + seed % 2,
                                    coord_range=(0, 60), seed=1300 + seed))
        for axis in range(fam.dim):
            for k in (2, 3, 4):
                assert threshold_low(fam, axis, k) == reference_threshold(fam, axis, k)
                assert threshold_hi(fam, axis, k) == reference_threshold_hi(fam, axis, k)
        for policy in SplitPolicy:
            for pierce in (pierce_planar, pierce_ddim) if fam.dim == 2 else (pierce_ddim,):
                allowed[0] = 1
                rep = pierce(fam, policy)
                assert allowed[0] == 0 and is_sound(fam, rep.points)
                assert rep.size <= rep.guarantee


def test_ddim_checks_cap_value_in_one_dimension():
    fam = family_1d([(0, 1), (2, 3)])
    for cap in (-1, 2.0, True):
        with pytest.raises(ValueError, match="non-negative"):
            pierce_ddim(fam, cap=cap)
    assert pierce_ddim(fam, cap=0).size == 2  # the sweep itself is not capped


LO64, HI64 = -2**63, 2**63 - 1


def extreme_family():
    # axis 0 reaches both ends of the 64-bit range, where x -> -x overflows
    return family([
        ((LO64, LO64 + 5), (0, 3)), ((LO64 + 3, -10), (2, 8)), ((-20, 20), (0, 1)),
        ((-5, 5), (4, 6)), ((15, HI64 - 7), (5, 9)), ((30, 40), (0, 2)),
        ((HI64 - 9, HI64), (0, 9)), ((HI64 - 3, HI64), (10, 12)), ((LO64, HI64), (11, 11)),
    ])


def test_threshold_hi_at_64_bit_extremes():
    fam = extreme_family()
    assert [threshold_hi(fam, 0, m) for m in range(5)] == [HI64 - 3, HI64 - 9, 30, -5, -20]
    assert [threshold_low(fam, 0, k) for k in range(5)] == [LO64 + 5, 5, 20, 40, HI64 - 7]
    assert threshold_hi(fam, 0, 6) is None


# --- two-line sweep ----------------------------------------------------------

def test_two_lines_single_box():
    fam = family([((0, 3), (0, 1))], lines=TwoLines(1, 0, 2))
    rep = pierce_two_lines(fam)
    assert rep.size == 1 and is_sound(fam, rep.points)


def test_two_lines_gadget():
    g = gen_gadget()
    rep = pierce_two_lines(g)
    assert is_sound(g, rep.points)
    assert rep.size <= 3 == rep.guarantee
    assert tau_exact(g).tau <= rep.size


def test_two_lines_requires_certificate():
    fam = family([((0, 1), (0, 1))])
    with pytest.raises(ValueError, match="certificate"):
        pierce_two_lines(fam)


def test_two_lines_guarantee_on_random_instances():
    for seed in range(80):
        fam = gen_random(RandomSpec(n_boxes=1 + seed % 10, coord_range=(0, 14),
                                    seed=300 + seed, two_line=True))
        rep = pierce_two_lines(fam)
        assert is_sound(fam, rep.points)
        assert rep.size <= rep.guarantee
        assert rep.guarantee == (3 * rep.nu_used) // 2
        assert tau_exact(fam).tau <= rep.size


def test_two_line_sweep_solves_nu_only_at_the_root(monkeypatch):
    calls = []

    def counting_nu_exact(f, cap):
        calls.append(len(f))
        return nu_exact(f, cap)

    monkeypatch.setattr(piercing, "nu_exact", counting_nu_exact)
    rep = pierce_two_lines(gen_extremal_two_line(16), cap=40)
    assert calls == [40]
    assert rep.size == 24 and rep.guarantee == 24


def test_families_built_by_splits_and_sweeps(monkeypatch):
    built = []
    post_init = BoxFamily.__post_init__

    def counted_post_init(f):
        built.append(len(f))
        post_init(f)

    fam = gen_random(RandomSpec(40, 2, (0, 1000), seed=3, two_line=True))
    monkeypatch.setattr(BoxFamily, "__post_init__", counted_post_init)
    assert len(split_three(fam, 0, 500)) == 3 and len(built) == 3
    assert len(split_four(fam, 0, 300, 600)) == 6 and len(built) == 7
    rep = pierce_two_lines(fam, cap=40)  # the sweep builds no family in any round
    assert len(built) == 7 and [t.op for t in rep.trace].count("two-line-step") >= 3
    for policy in SplitPolicy:  # each planar split builds its four parts, its sweep none
        del built[:]
        rep = pierce_planar(fam, policy, cap=40)
        splits = [t.op for t in rep.trace].count("split-four")
        assert splits >= 3 and len(built) == 4 * splits


# --- planar recursion ----------------------------------------------------------

def test_planar_pairwise_intersecting_single_point():
    fam = family([((0, 4), (0, 4)), ((1, 5), (1, 5)), ((2, 6), (0, 9))])
    for policy in SplitPolicy:
        rep = pierce_planar(fam, policy)
        assert rep.size == 1 and is_sound(fam, rep.points)


def test_planar_three_disjoint_boxes():
    fam = family([((0, 1), (0, 1)), ((10, 11), (0, 1)), ((20, 21), (0, 1))])
    rep = pierce_planar(fam)
    assert is_sound(fam, rep.points)
    assert rep.size <= 5  # balanced split: one subfamily point plus a sweep round
    assert rep.guarantee == pytest.approx(h(3))
    assert rep.size <= rep.guarantee


def test_planar_gadget_plus_far_box():
    boxes = [b.bounds() for b in gen_gadget().boxes] + [((100, 101), (100, 101))]
    fam = family(boxes)
    assert nu_exact(fam).nu == 3
    rep = pierce_planar(fam, SplitPolicy.DP_OPTIMAL)
    assert is_sound(fam, rep.points)
    assert rep.guarantee == bound_prop3(3) == 5
    assert rep.size <= 5


def test_planar_stacked_boxes_sharing_x_range():
    # every box spans the same x-interval, so both packing thresholds
    # overrun each other and the recursion collapses to one cut line
    fam = family([((0, 5), (2 * i, 2 * i + 1)) for i in range(5)])
    for policy in SplitPolicy:
        rep = pierce_planar(fam, policy)
        assert is_sound(fam, rep.points)
        assert rep.size <= rep.guarantee
        assert tau_exact(fam).tau <= rep.size


def test_planar_at_64_bit_extremes():
    fam = extreme_family()
    bal = pierce_planar(fam, SplitPolicy.BALANCED)
    assert [p.coords for p in bal.points] == [
        (LO64, 0), (LO64 + 5, 6), (-5, 6), (30, 0), (HI64 - 3, 10), (-20, 0), (20, 9),
        (HI64 - 9, 9), (LO64, 11)]
    assert [(t.lo, t.hi) for t in bal.trace if t.op == "split-four"] == [
        (20, HI64 - 9), (LO64 + 5, -5)]
    assert bal.nu_used == 6 and bal.guarantee == pytest.approx(h(6))
    dp = pierce_planar(fam, SplitPolicy.DP_OPTIMAL)
    assert [p.coords for p in dp.points] == [
        (LO64 + 3, 2), (HI64 - 9, 0), (HI64, 12), (-20, 0), (5, 2), (30, 2), (-5, 4), (5, 9),
        (30, 9), (LO64, 11)]
    assert [(t.lo, t.hi) for t in dp.trace if t.op == "split-four"] == [(5, 30), (HI64, HI64)]
    assert dp.nu_used == 6 and dp.guarantee == 14.0
    for rep in (bal, dp):
        assert is_sound(fam, rep.points)


def test_planar_empty_family():
    rep = pierce_planar(BoxFamily(2, ()))
    assert rep.size == 0 and rep.guarantee == 0.0


def test_planar_rejects_other_dimensions():
    with pytest.raises(ValueError):
        pierce_planar(family_1d([(0, 1)]))


def test_policy_given_by_its_value_runs_that_policy():
    fam = gen_random(RandomSpec(40, 2, (0, 1000), seed=3))
    for policy in SplitPolicy:
        assert pierce_planar(fam, policy.value, cap=40) == pierce_planar(fam, policy, cap=40)
    assert pierce_planar(fam, "balanced", cap=40).guarantee == h(nu_exact(fam, 40).nu)
    fam3 = gen_random(RandomSpec(24, 3, (0, 100), seed=3))
    assert pierce_ddim(fam3, "balanced") == pierce_ddim(fam3, SplitPolicy.BALANCED)


def test_unknown_policy_is_refused():
    for fam in (gen_gadget(), family_1d([(0, 1), (2, 3)])):
        with pytest.raises(ValueError, match="bogus"):
            pierce_ddim(fam, "bogus")
    with pytest.raises(ValueError, match="bogus"):
        pierce_planar(gen_gadget(), "bogus")


def test_planar_fuzz_guarantees_and_sandwich():
    for seed in range(120):
        fam = gen_random(RandomSpec(n_boxes=1 + seed % 11, coord_range=(0, 16),
                                    seed=400 + seed))
        tau = tau_exact(fam).tau
        for policy in SplitPolicy:
            rep = pierce_planar(fam, policy)
            assert is_sound(fam, rep.points)
            assert rep.size <= rep.guarantee + 1e-9
            assert tau <= rep.size
            expected = h(rep.nu_used) if policy is SplitPolicy.BALANCED else bound_prop3(rep.nu_used)
            if rep.nu_used > 0:
                assert rep.guarantee == pytest.approx(float(expected))


# --- dimension recursion -------------------------------------------------------

def test_ddim_shared_point_3d():
    fam = family([((0, 4), (0, 4), (0, 4)), ((2, 6), (1, 5), (3, 9))])
    rep = pierce_ddim(fam)
    assert rep.size == 1 and is_sound(fam, rep.points)


def test_ddim_diagonal_disjoint_exact():
    for n in (2, 4, 5):
        fam = family([((10 * i, 10 * i + 1),) * 3 for i in range(n)])
        for policy in SplitPolicy:
            rep = pierce_ddim(fam, policy)
            assert is_sound(fam, rep.points)
            assert rep.size == n == tau_exact(fam).tau


def test_ddim_dp_guarantee_is_prop1():
    fam = gen_random(RandomSpec(n_boxes=9, dim=3, coord_range=(0, 9), seed=42))
    rep = pierce_ddim(fam, SplitPolicy.DP_OPTIMAL)
    assert rep.guarantee == float(bound_prop1(rep.nu_used, 3))
    assert rep.size <= rep.guarantee
    assert is_sound(fam, rep.points)


def test_ddim_3d_exact_output():
    # Covers a projection to the plane, two-line steps below it and a
    # bound tightening: the dp root's plus part is passed bound 3 and
    # re-entered at 1, its last node.
    fam = gen_random(RandomSpec(n_boxes=7, dim=3, coord_range=(0, 12), seed=9))
    bal = pierce_ddim(fam, SplitPolicy.BALANCED)
    assert [p.coords for p in bal.points] == [
        (5, 2, 0), (5, 3, 11), (5, 8, 11), (9, 4, 2), (9, 1, 3), (9, 8, 9)]
    assert [(t.op, t.parent, t.depth, t.dim, t.bound, t.lo, t.sizes) for t in bal.trace] == [
        ("split-three", None, 0, 3, 5, 9, (3, 4, 0)), ("split-three", 0, 1, 3, 2, 5, (0, 3, 0)),
        ("split-four", 1, 2, 2, 2, 3, (0, 0, 0, 3)), ("two-line-step", 2, 3, 2, 2, 11, (1, 2, 0)),
        ("split-four", 0, 1, 2, 5, 8, (1, 0, 0, 3)), ("common-point", 4, 2, 2, 1, None, (1,)),
        ("two-line-step", 4, 2, 2, 5, 9, (1, 2, 0))]
    dp = pierce_ddim(fam, SplitPolicy.DP_OPTIMAL)
    assert [p.coords for p in dp.points] == [
        (1, 8, 0), (6, 2, 0), (6, 1, 3), (6, 8, 9), (6, 1, 11), (7, 4, 2)]
    assert [(t.op, t.parent, t.depth, t.dim, t.bound, t.lo, t.sizes) for t in dp.trace] == [
        ("split-three", None, 0, 3, 5, 6, (1, 5, 1)), ("common-point", 0, 1, 3, 1, None, (1,)),
        ("split-four", 0, 1, 2, 5, 8, (1, 0, 0, 4)), ("common-point", 2, 2, 2, 1, None, (1,)),
        ("two-line-step", 2, 2, 2, 5, 9, (1, 2, 1)), ("common-point", 4, 3, 2, 3, None, (1,)),
        ("common-point", 0, 1, 3, 1, None, (1,))]
    assert (bal.nu_used, dp.nu_used, dp.guarantee) == (5, 5, float(bound_prop1(5, 3)))


def test_ddim_dispatches_lower_dimensions():
    fam1 = family_1d([(0, 1), (4, 5)])
    assert pierce_ddim(fam1).size == 2
    g = gen_gadget()
    assert pierce_ddim(g, SplitPolicy.DP_OPTIMAL).guarantee == bound_prop3(2)


def test_ddim_fuzz_3d_and_4d():
    for seed in range(60):
        dim = 3 if seed % 2 == 0 else 4
        fam = gen_random(RandomSpec(n_boxes=1 + seed % 8, dim=dim,
                                    coord_range=(0, 10), seed=500 + seed))
        tau = tau_exact(fam).tau
        for policy in SplitPolicy:
            rep = pierce_ddim(fam, policy)
            assert is_sound(fam, rep.points)
            assert rep.size <= rep.guarantee + 1e-9
            assert tau <= rep.size


# --- differential: algorithms against the oracles ------------------------------

def two_line_box(x, dx, y, dy, line):
    """Box [x, x+dx] x [y, y+dy], its axis-1 interval stretched to contain `line`,
    the way gen_random clamps two-line boxes."""
    return Box.from_bounds([(x, x + dx), (min(y, line), max(y + dy, line))])


# Planar families of up to 10 boxes, each meeting line y = 0 or y = 4.
two_line_families = st.lists(
    st.builds(two_line_box, st.integers(-8, 8), st.integers(0, 6), st.integers(-4, 8),
              st.integers(0, 4), st.sampled_from((0, 4))),
    max_size=10,
).map(lambda bs: BoxFamily.of(bs, lines=TwoLines(1, 0, 4), dim=2))


def check_against_oracles(fam, reports):
    tau, nu = tau_exact(fam).tau, nu_exact(fam).nu
    for rep in reports:
        assert is_sound(fam, rep.points)
        assert rep.size <= rep.guarantee
        assert tau <= rep.size
        assert rep.nu_used == nu


@settings(max_examples=200, deadline=None)
@given(small_families)
def test_ddim_differential_against_oracles(fam):
    # small_families draws d = 1-3: the interval sweep, the planar and the 3-d recursion
    check_against_oracles(fam, [pierce_ddim(fam, policy) for policy in SplitPolicy])


@settings(max_examples=200, deadline=None)
@given(two_line_families)
def test_two_lines_differential_against_oracles(fam):
    check_against_oracles(fam, [pierce_two_lines(fam)])


# --- reports and traces --------------------------------------------------------

def test_report_deterministic():
    fam = gen_random(RandomSpec(n_boxes=10, coord_range=(0, 15), seed=77))
    assert pierce_planar(fam) == pierce_planar(fam)


def test_trace_depth_and_descent():
    for seed in range(40):
        dim = 2 if seed % 2 == 0 else 3
        fam = gen_random(RandomSpec(n_boxes=2 + seed % 10, dim=dim,
                                    coord_range=(0, 12), seed=900 + seed))
        rep = pierce_ddim(fam, SplitPolicy.DP_OPTIMAL)
        if not rep.trace:
            continue
        assert max(t.depth for t in rep.trace) <= rep.nu_used + dim
        by_id = {t.node: t for t in rep.trace}
        for t in rep.trace:
            if t.parent is None:
                assert t.depth == 0
                continue
            parent = by_id[t.parent]
            assert t.depth == parent.depth + 1
            if parent.op == "split-four" and t.op in ("two-line-step", "common-point"):
                # the middle strip is handed to the sweep at the same bound
                assert (t.dim, t.bound) <= (parent.dim, parent.bound)
            else:
                assert (t.dim, t.bound) < (parent.dim, parent.bound)


def test_points_never_exceed_guarantee_structurally():
    fam = gen_gadget()
    rep = pierce_two_lines(fam)
    assert rep.size <= rep.guarantee
    assert rep.nu_used == 2


# sha256 over repr((points, guarantee, nu_used, trace)) of every report in the sweep below
_REPORT_SWEEP_SHA256 = "a0fd8c75860b9d64680c5b60734566d9701ac16fdd00c41b19415fd066eb1eac"


def test_reports_in_two_to_five_dimensions_are_pinned():
    # 4-d and 5-d families nest one projection inside another, so their points are
    # lifted through more than one cut
    def reports():
        for seed in range(150):
            for dim, n in ((2, 12), (2, 24), (2, 40), (3, 16), (3, 30), (4, 14), (5, 10)):
                fam = gen_random(RandomSpec(n_boxes=n, dim=dim, seed=seed,
                                            coord_range=(0, 60) if seed % 2 else (0, 1000)))
                for policy in SplitPolicy:
                    yield (pierce_planar if dim == 2 else pierce_ddim)(fam, policy, cap=n)
        for n in range(1, 14):
            for policy in SplitPolicy:
                yield pierce_planar(gen_extremal_two_line(n), policy, cap=64)

    digest = hashlib.sha256()
    for rep in reports():
        digest.update(repr((rep.points, rep.guarantee, rep.nu_used, rep.trace)).encode())
    assert digest.hexdigest() == _REPORT_SWEEP_SHA256


def test_ddim_in_200_dimensions_needs_no_recursion():
    fam = gen_random(RandomSpec(n_boxes=6, dim=200, coord_range=(0, 10), seed=1))
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)  # far fewer frames than dimensions
    try:
        reports = [pierce_ddim(fam, policy, cap=6) for policy in SplitPolicy]
    finally:
        sys.setrecursionlimit(limit)
    for rep in reports:
        assert is_sound(fam, rep.points)
        assert rep.size <= rep.guarantee


# --- cap handling ----------------------------------------------------------------

def test_pierce_cap_refusal():
    from boxpierce import CapExceeded
    fam = gen_random(RandomSpec(n_boxes=12, coord_range=(0, 30), seed=3))
    with pytest.raises(CapExceeded):
        pierce_planar(fam, cap=11)


def test_internal_threshold_helper_matches_public():
    fam = family_1d([(0, 1), (2, 3), (4, 5)])
    assert threshold_low(fam, 0, 1) == 3
    assert threshold_low(family_1d([(0, 9), (1, 8)]), 0, 1) is None
