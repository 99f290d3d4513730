"""Constructive piercing algorithms with certified size guarantees.

Four procedures, each returning a `PierceReport` whose point set meets
every input box and whose size never exceeds the reported guarantee:

  pierce_intervals_1d  greedy right-endpoint sweep; exactly nu points,
                       which is optimal in one dimension.
  pierce_two_lines     for planar families in which every box meets one
                       of two parallel lines: sweep orthogonally to the
                       lines, emitting at most 3 points per 2 units of
                       packing number; guarantee floor(3*nu/2).
  pierce_planar        three-way split of the plane at two thresholds;
                       the middle strip crosses a vertical line and is
                       handed to the two-line sweep. Guarantee h(nu)
                       under the balanced policy, bound_prop3(nu) under
                       the DP-optimal policy.
  pierce_ddim          dimension recursion for d >= 3: split on axis 0,
                       project the boxes crossing the split hyperplane
                       one dimension down, recurse. Guarantee
                       bound_lemma1(nu, d) (balanced) or
                       bound_prop1(nu, d) (DP-optimal).

The exact packing number is computed once, at the root; recursive
calls receive the upper bounds the split inequalities guarantee instead
of re-solving subfamilies. Both recursions run as one loop over an
explicit stack in `_pierce`, so no depth or dimension meets Python's
recursion limit. Thresholds realize the continuous cut
positions discretely: the left threshold is the smallest right endpoint
at which the prefix first packs k+1 pairwise-disjoint boxes, which
keeps every inequality exact. The right threshold is the same search
over the reflected left endpoints ~lo, since reflecting one axis changes
no intersection. "Packs 1" means "non-empty", and "packs 2" means "not
pairwise intersecting", one Helly scan in end order (`oracles._helly_scan`).
Probes with k >= 2 bisect prefix lengths and ask only "packs k+1?": the
branch and bound behind `nu_exact` answers, stopping at the first k+1
disjoint boxes. The two-line sweep sorts its boxes once and runs one
Helly scan per round over a list of box indices, with no oracle call
and no family built. Split sizes under the DP-optimal policy come from
the tables that certify the guarantee (`split_prop3`, `split_prop1`).
All tie-breaking is fixed (lowest axis, smallest coordinate, lowest box
index), so runs are deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from typing import NamedTuple

from .bounds import bound_lemma1, bound_prop1, bound_prop3, h, split_prop1, split_prop3
from .geometry import (BoxFamily, Point, TwoLines, lift_points, project_onto_hyperplane,
                       split_four, split_three)
from .oracles import (DEFAULT_CAP, _adjacency, _helly_scan, _max_disjoint, check_cap_value,
                      common_point, nu_exact)


class SplitPolicy(str, Enum):
    """How recursion split sizes are chosen."""

    BALANCED = "balanced"
    DP_OPTIMAL = "dp"


class TraceNode(NamedTuple):
    """One recursion event: where the family was split and how it divided."""

    node: int
    parent: int | None
    op: str
    dim: int
    bound: int
    depth: int
    axis: int | None = None
    lo: int | None = None
    hi: int | None = None
    sizes: tuple[int, ...] = ()


class PierceReport(NamedTuple):
    """Piercing set plus the size bound certified for this run.

    `nu_used` is the exact packing number the run was entered with and
    `guarantee` the bound implied by it; len(points) <= guarantee always.
    """

    points: tuple[Point, ...]
    guarantee: float
    nu_used: int
    trace: tuple[TraceNode, ...] = ()

    @property
    def size(self) -> int:
        return len(self.points)

    def __repr__(self):  # without the trace, which can be long
        return (f"PierceReport(points={self.points!r}, guarantee={self.guarantee!r}, "
                f"nu_used={self.nu_used!r})")


class _Tracer:
    def __init__(self):
        self.nodes: list[TraceNode] = []

    def add(self, parent: int | None, dim: int, **kw) -> int:
        node = len(self.nodes)
        depth = 0 if parent is None else self.nodes[parent].depth + 1
        self.nodes.append(TraceNode(node=node, parent=parent, dim=dim, depth=depth, **kw))
        return node


def _report(points, guarantee, nu_used: int, tracer: _Tracer) -> PierceReport:
    return PierceReport(
        points=tuple(points),
        guarantee=float(guarantee),
        nu_used=nu_used,
        trace=tuple(tracer.nodes),
    )


# ---------------------------------------------------------------------------
# thresholds


def _threshold(boxes, ends, k: int) -> int | None:
    """Smallest end value a with nu({end <= a}) >= k+1, or None.

    `ends` holds one value per box: its right endpoint on the cut axis
    for a left threshold, or its reflected left endpoint ~lo for a right
    threshold, which is then ~ the answer. The reflection x -> ~x
    (= -1-x) reverses the order and maps the 64-bit range onto itself;
    it changes no intersection, so the boxes are used as they are.

    With a the answer, {end < a} packs at most k disjoint boxes while
    {end <= a} packs k+1.

    For k <= 1 no search is needed: a prefix packs 1 iff it is non-empty
    (k == 0: the smallest end), and `_helly_scan` in end order finds the
    first end at which a prefix packs 2 (k == 1).

    For k >= 2 the adjacency is built once, over the boxes in end order,
    so every prefix is a low-bit mask. The packing number of the first p
    boxes is nondecreasing in p, so a binary search over p from k+1 to n
    finds the shortest prefix that packs k+1, and a is the end of its
    last box. Each probe "packs k+1?" is `_max_disjoint` with `enough`:
    its greedy seed mostly answers yes, and its search the rest.
    """
    if not boxes:
        return None
    if k == 0:
        return min(ends)
    order = sorted(range(len(boxes)), key=ends.__getitem__)
    if k == 1:
        i = _helly_scan(boxes, order)[0]
        return None if i is None else ends[i]
    adj = _adjacency([boxes[i] for i in order])

    def packs(p: int) -> bool:  # do the first p boxes in end order pack k+1?
        return _max_disjoint(adj, (1 << p) - 1, k + 1).bit_count() > k

    lo, hi = k + 1, len(boxes)
    if not packs(hi):  # the full family: nu <= k
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if packs(mid):
            hi = mid
        else:
            lo = mid + 1
    return ends[order[lo - 1]]


# ---------------------------------------------------------------------------
# 1-d sweep


def pierce_intervals_1d(f: BoxFamily) -> PierceReport:
    """Greedy sweep over intervals: stab the smallest uncovered right endpoint.

    Emits exactly nu(f) points (the stabbed intervals are pairwise
    disjoint), which is also optimal, so guarantee = nu = size.
    """
    if f.dim != 1:
        raise ValueError(f"interval sweep needs a 1-d family, got dimension {f.dim}")
    his = [box.sides[0].hi for box in f.boxes]
    stabs: list[int] = []
    for i in sorted(range(len(f)), key=his.__getitem__):
        iv = f.boxes[i].sides[0]
        if not stabs or iv.lo > stabs[-1]:
            stabs.append(iv.hi)
    tracer = _Tracer()
    tracer.add(None, 1, op="sweep-1d", bound=len(stabs), sizes=(len(f),))
    return _report([Point((s,)) for s in stabs], len(stabs), len(stabs), tracer)


# ---------------------------------------------------------------------------
# two-line sweep


def _two_line_sweep(boxes, lines: TwoLines, bound: int, tracer: _Tracer,
                    parent: int | None) -> list[Point]:
    """Sweep planar `boxes`, each meeting a line of `lines`, orthogonally to the lines.

    bound >= nu(boxes) is required. The boxes are sorted once by right
    end on the sweep axis (ties by index); the boxes not yet pierced stay
    an index list in that order. Per round, the k == 1 threshold t is
    one Helly scan of that list. The boxes with r < t, a prefix, pack at
    most one disjoint box, so their common point covers them; the boxes
    containing t each meet a line, so the points at t on the lines cover
    them; the boxes with l > t lost two disjoint boxes, so their bound
    drops by 2. Once the bound is at most 1 the remaining boxes pairwise
    intersect, so the scan finds no threshold and their common point
    ends the sweep. No round sorts, calls an oracle or builds a family.
    """
    ax = 1 - lines.axis
    los = [box.sides[ax].lo for box in boxes]
    his = [box.sides[ax].hi for box in boxes]
    remaining = sorted(range(len(boxes)), key=his.__getitem__)
    points: list[Point] = []
    while remaining:
        i, corner = _helly_scan(boxes, remaining)
        if i is None:
            points.append(Point(tuple(corner)))
            tracer.add(parent, 2, op="common-point", bound=bound, sizes=(len(remaining),))
            break
        t = his[i]
        n_minus = bisect_left(remaining, t, key=his.__getitem__)
        plus = [j for j in remaining[n_minus:] if los[j] > t]
        if n_minus:
            points.append(Point(tuple(_helly_scan(boxes, remaining[:n_minus])[1])))
        for c in sorted({lines.c1, lines.c2}):
            points.append(Point((t, c) if ax == 0 else (c, t)))
        parent = tracer.add(parent, 2, op="two-line-step", bound=bound, axis=ax, lo=t,
                            sizes=(n_minus, len(remaining) - n_minus - len(plus), len(plus)))
        remaining, bound = plus, bound - 2
    return points


def pierce_two_lines(f: BoxFamily, cap: int = DEFAULT_CAP) -> PierceReport:
    """Pierce a planar family whose members all meet one of two parallel lines.

    Guarantee floor(3*nu/2) with nu computed exactly at the root.
    """
    if f.dim != 2:
        raise ValueError(f"two-line piercing needs a planar family, got dimension {f.dim}")
    if f.lines is None:
        raise ValueError("family carries no two-line certificate")
    root_nu = nu_exact(f, cap).nu
    tracer = _Tracer()
    points = _two_line_sweep(f.boxes, f.lines, root_nu, tracer, None)
    return _report(points, (3 * root_nu) // 2, root_nu, tracer)


# ---------------------------------------------------------------------------
# planar and d-dim recursion, on an explicit stack


def _balanced_triple(n: int) -> tuple[int, int, int]:
    q, r = divmod(n - 2, 3)
    parts = [q + 1] * r + [q] * (3 - r)
    return parts[0], parts[1], parts[2]


def pierce_planar(f: BoxFamily, policy: SplitPolicy | str = SplitPolicy.BALANCED,
                  cap: int = DEFAULT_CAP) -> PierceReport:
    """Pierce a planar family by recursive three-way splitting.

    Each level cuts at a left threshold (prefix packs k+1) and a right
    threshold (suffix packs m+1); the three outer parts recurse with
    bounds k, l, m and the boxes crossing either cut form a two-line
    family handled by the sweep.
    """
    policy = SplitPolicy(policy)
    if f.dim != 2:
        raise ValueError(f"planar piercing needs a 2-d family, got dimension {f.dim}")
    return _pierce(f, policy, cap)


def _pierce(f: BoxFamily, policy: SplitPolicy, cap: int) -> PierceReport:
    """Planar and d-dim recursion (d >= 2) from the exact root nu, as one loop.

    A step (family, bound, parent, lifts) needs bound >= nu(family).
    An empty family needs no point, and one with bound <= 1 is pairwise
    intersecting, so one common point pierces it. A missing threshold
    re-pushes the family with the tight bound. Otherwise the family is
    split on axis 0: a planar one in four parts, whose zero part is a
    (boxes, lines) step for the two-line sweep, and a higher one in
    three, whose zero part is projected onto the cut hyperplane and its
    cut prepended to `lifts`. Children are pushed in reverse, so points
    and trace nodes come out depth first. Each step's points are lifted
    through its `lifts`, innermost first.
    """
    root_nu = nu_exact(f, cap).nu
    balanced = policy is SplitPolicy.BALANCED
    if root_nu == 0:
        guarantee = 0.0
    elif f.dim == 2:
        guarantee = h(root_nu) if balanced else bound_prop3(root_nu)
    else:
        guarantee = bound_lemma1(root_nu, f.dim) if balanced else bound_prop1(root_nu, f.dim)
    tracer = _Tracer()
    points: list[Point] = []
    stack = [(f, root_nu, None, ())]
    while stack:
        f, bound, parent, lifts = stack.pop()
        if type(f) is tuple:  # a planar zero part: (boxes, lines) for the sweep
            emitted = _two_line_sweep(*f, bound, tracer, parent)
        elif not len(f):
            continue
        elif bound <= 1:
            tracer.add(parent, f.dim, op="common-point", bound=bound, sizes=(len(f),))
            emitted = [common_point(f)]
        else:
            if f.dim == 2:
                k, l, m = _balanced_triple(bound) if balanced else split_prop3(bound)
            else:
                k = (bound - 1) // 2 if balanced else split_prop1(bound, f.dim)
            a = _threshold(f.boxes, [box.sides[0].hi for box in f.boxes], k)
            if a is None:  # nu(f) <= k: re-enter with the tight bound
                stack.append((f, k, parent, lifts))
                continue
            if f.dim > 2:
                minus, zero, plus = split_three(f, 0, a)
                node = tracer.add(parent, f.dim, op="split-three", bound=bound, axis=0, lo=a,
                                  sizes=(len(minus), len(zero), len(plus)))
                stack += [(plus, bound - k - 1, node, lifts),
                          (project_onto_hyperplane(zero, 0, a), bound, node, (a, *lifts)),
                          (minus, k, node, lifts)]
                continue
            b = _threshold(f.boxes, [~box.sides[0].lo for box in f.boxes], m)
            if b is None:
                stack.append((f, m, parent, lifts))
                continue
            # The right threshold is ~b. If a > ~b, both packing prefixes overrun
            # each other; every cut point between them leaves {r < a} packing <= k
            # and {l > a} packing <= m, so collapse to the single line x = a (the
            # middle part is then empty and the crossing boxes form a one-line family).
            b = max(a, ~b)
            parts = split_four(f, 0, a, b)
            node = tracer.add(parent, 2, op="split-four", bound=bound, axis=0, lo=a, hi=b,
                              sizes=(len(parts.minus), len(parts.plusminus),
                                     len(parts.plus), len(parts.zero)))
            stack += [((parts.zero.boxes, TwoLines(0, a, b)), bound, node, lifts),
                      (parts.plus, m, node, lifts), (parts.plusminus, l, node, lifts),
                      (parts.minus, k, node, lifts)]
            continue
        for a in lifts:
            emitted = lift_points(emitted, 0, a)
        points += emitted
    return _report(points, guarantee, root_nu, tracer)


def pierce_ddim(f: BoxFamily, policy: SplitPolicy | str = SplitPolicy.BALANCED,
                cap: int = DEFAULT_CAP) -> PierceReport:
    """Pierce a family of any dimension.

    Dispatches to the interval sweep at d=1 and the planar recursion at
    d=2. For d >= 3, splits on axis 0 at a packing threshold, recurses
    on the outer parts in the same dimension, and pierces the boxes
    crossing the split hyperplane by projecting them one dimension down
    and lifting the resulting points back.
    """
    policy = SplitPolicy(policy)
    if f.dim == 1:
        check_cap_value(cap)  # the sweep runs no oracle, but the cap's value rule holds
        return pierce_intervals_1d(f)
    return _pierce(f, policy, cap)
