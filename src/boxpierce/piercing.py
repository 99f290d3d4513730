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
                       the boxes crossing a cut go to the two-line
                       sweep. Guarantee h(nu) (balanced) or
                       bound_prop3(nu) (DP-optimal).
  pierce_ddim          dimension recursion for d >= 3: split on one
                       axis, pierce the boxes crossing the cut on the
                       axes after it. Guarantee bound_lemma1(nu, d)
                       (balanced) or bound_prop1(nu, d) (DP-optimal).

The exact packing number is computed once, at the root; deeper steps
receive the upper bounds the split inequalities guarantee. The planar
and d-dim roots search it (`oracles._packing`, with the clique-cover
bound) on one adjacency over the root's boxes in right-end order on
axis 0 (`_searched`), which every threshold probe of the piercing
reuses; the two-line root still calls `nu_exact`. The sweep
and both recursions run as one loop over an explicit stack in
`_pierce`, so no depth or dimension meets Python's recursion limit.
The paper projects the boxes crossing a cut hyperplane one dimension
down and lifts the points back; each such box contains the cut, so a
step keeps the root's own boxes and moves on to the next axis instead,
and no split builds a family, a box or a point. Thresholds realize the
continuous cuts discretely: the left threshold is the smallest right
endpoint at which the prefix first packs k+1 pairwise-disjoint boxes,
which keeps every inequality exact; the right one is the same search
over the reflected left endpoints ~lo. For every k, 0 and 1 included,
each probe asks the branch and bound behind `nu_exact` only "packs
k+1?" of a prefix, a mask of the root's adjacency, and the next probe
ends just before the last of the k+1 disjoint boxes a yes hands back.
A sweep step is sorted when pushed; each round is one step and one
Helly scan. Split sizes under the DP-optimal policy come from the
tables that certify the guarantee (`split_prop3`, `split_prop1`). All
tie-breaking is fixed (lowest axis, smallest coordinate, lowest box
index), so runs are deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from itertools import accumulate
from operator import or_
from typing import NamedTuple

from .bounds import bound_lemma1, bound_prop1, bound_prop3, h, split_prop1, split_prop3
from .geometry import BoxFamily, Point, _partition
from .oracles import (DEFAULT_CAP, _adjacency, _helly_scan, _max_disjoint, _packing, check_cap,
                      check_cap_value, nu_exact)
# Uncalled here; bound only because perfbench/tracing.py wraps these names in this module.
from .geometry import lift_points, project_onto_hyperplane, split_four, split_three  # noqa: F401
from .oracles import common_point  # noqa: F401


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


def _report(coords, guarantee, nu_used: int, tracer: _Tracer) -> PierceReport:
    """The report whose points are `coords`, each built into a `Point` here, once."""
    return PierceReport(tuple(map(Point, coords)), float(guarantee), nu_used, tuple(tracer.nodes))


# ---------------------------------------------------------------------------
# thresholds


def _searched(boxes) -> tuple[list[int], dict[int, int]]:
    """The one adjacency of a piercing, and each box's bit in it, keyed by `id(box)`.

    It is over `boxes` in right-end order on axis 0, so the root's
    include-first search for nu reaches the end-order greedy set
    (maximum on intervals) at its first leaf. A `Box` object listed
    twice keeps one bit: both copies always fall in the same parts and
    prefixes, and dropping a copy changes no packing number.
    """
    boxes = sorted(boxes, key=lambda box: box.sides[0].hi)
    return _adjacency(boxes), {id(box): 1 << j for j, box in enumerate(boxes)}


def _threshold(boxes, ends, k: int, adj: list[int], bit: dict[int, int]) -> int | None:
    """Smallest end value a with nu({end <= a}) >= k+1, or None.

    `ends` holds one value per box: its right endpoint on the cut axis
    for a left threshold, or its reflected left endpoint ~lo for a right
    threshold, which is then ~ the answer. The reflection x -> ~x
    (= -1-x) reverses the order and maps the 64-bit range onto itself;
    it changes no intersection, so the boxes are used as they are.

    With a the answer, {end < a} packs at most k disjoint boxes while
    {end <= a} packs k+1.

    No adjacency is built: the adjacency is the root's, `adj` from
    `_searched`, and `bit` maps each box to its bit there. The prefix of
    the first p boxes in end order is the OR of their bits. Each probe
    "packs k+1?" is `_max_disjoint` with `enough`, whose yes is a
    disjoint witness, seeded with the greedy set taken in end order (its
    part in a prefix is that prefix's greedy set, maximum on intervals).
    The first probe is the whole family; after a yes, the prefix ending
    at box p, the (k+1)-th of the witness in end order, packs k+1, and
    the next probe is the first p boxes. So the first p+1 boxes always
    pack k+1, and as packing grows with the prefix, at the first no p+1
    is the shortest such prefix and a is the end of box p. With no boxes
    the first probe, the empty prefix, says no.
    """
    order = sorted(range(len(boxes)), key=ends.__getitem__)
    bits = [bit[id(boxes[i])] for i in order]
    prefix = list(accumulate(bits, or_, initial=0))
    greedy = blocked = 0
    for b in bits:
        if not b & blocked:
            greedy |= b
            blocked |= adj[b.bit_length() - 1]
    p, a = len(bits), None
    while (w := _max_disjoint(adj, prefix[p], k + 1, greedy & prefix[p])).bit_count() > k:
        p = bisect_left(prefix, k + 1, 0, p, key=lambda m: (m & w).bit_count()) - 1
        a = ends[order[p]]
    return a


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
    return _report([(s,) for s in stabs], len(stabs), len(stabs), tracer)


# ---------------------------------------------------------------------------
# two-line sweep, planar and d-dim recursion, on an explicit stack


def pierce_two_lines(f: BoxFamily, cap: int = DEFAULT_CAP) -> PierceReport:
    """Pierce a planar family whose members all meet one of two parallel lines.

    Guarantee floor(3*nu/2) with nu computed exactly at the root.
    """
    if f.dim != 2:
        raise ValueError(f"two-line piercing needs a planar family, got dimension {f.dim}")
    if f.lines is None:
        raise ValueError("family carries no two-line certificate")
    return _pierce(f, None, cap)


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


def _pierce(f: BoxFamily, policy: SplitPolicy | None, cap: int) -> PierceReport:
    """Two-line sweep (policy None: over `f.lines`) and planar and d-dim recursion, as one loop.

    A step (boxes, bound, parent, cuts, lines) needs bound >= nu(boxes).
    Its root boxes all contain cuts[j] on axis j, the cuts of the
    hyperplanes above it, outermost first; so it works on the axes from
    c = len(cuts) on and splits on axis c. An empty step needs no point.
    A sweep step (`lines` set: its sweep axis, absolute, and its sorted
    line coordinates) has two axes left, every box meeting a line, and
    its boxes are sorted by right end on the sweep axis (ties in input
    order) when it is pushed. It, and a step with bound <= 1,
    runs one Helly scan: with no disjoint pair, their common point
    pierces the step; a bound <= 1 step with one has bound < nu and
    raises. Else a sweep round cuts at t, the right end of the scan's
    box, the first to miss an earlier one: the boxes ending before t, a
    prefix, pack at most one disjoint box, so their common point covers
    them; the boxes containing t each meet a line, so the points at t on
    the lines cover them; the boxes starting after t miss both boxes of
    that disjoint pair, so they are the next step, still sorted, with
    bound - 2. A split step that misses a threshold re-pushes itself
    with the tight bound. Else, with two axes left, the
    boxes split in four parts, the zero part a sweep step on the cut
    lines; with more, in three, the zero part appending its cut to
    `cuts`. Children are pushed in reverse, so points and trace nodes
    come out depth first. A step's points are `cuts` followed by its own
    coordinates. The root's nu is `nu_exact`'s for the sweep and, under
    the same cap, `_packing`'s with the clique-cover bound for the
    recursions, on the adjacency `_searched` builds once, which every
    threshold search of the loop shares.
    """
    balanced = policy is SplitPolicy.BALANCED
    if policy is None:  # the root is one sweep step, across the lines of `f.lines`
        root_nu = nu_exact(f, cap).nu
        lines = (1 - f.lines.axis, sorted({f.lines.c1, f.lines.c2}))
        boxes = sorted(f.boxes, key=lambda box: box.sides[lines[0]].hi)
        guarantee = (3 * root_nu) // 2
    else:
        check_cap(f, cap)
        adj, bit = _searched(f.boxes)
        boxes, lines, root_nu = f.boxes, None, _packing(adj, cover=True).bit_count()
        if root_nu == 0:
            guarantee = 0.0
        elif f.dim == 2:
            guarantee = h(root_nu) if balanced else bound_prop3(root_nu)
        else:
            guarantee = bound_lemma1(root_nu, f.dim) if balanced else bound_prop1(root_nu, f.dim)
    tracer = _Tracer()
    coords: list[tuple[int, ...]] = []
    stack = [(boxes, root_nu, None, (), lines)]
    while stack:
        boxes, bound, parent, cuts, lines = stack.pop()
        if not boxes:
            continue
        c, dim = len(cuts), f.dim - len(cuts)
        if lines is not None or bound <= 1:
            i, corner = _helly_scan(boxes)
            if i is None:
                tracer.add(parent, dim, op="common-point", bound=bound, sizes=(len(boxes),))
                coords.append(cuts + tuple(corner[c:]))
                continue
            if bound <= 1:  # no single point pierces this part
                raise ValueError(f"bound {bound} < nu: box {i} of the part misses an earlier box")
            ax, ys = lines
            t = boxes[i].sides[ax].hi
            n_minus = i  # boxes before i end at or before t; step back over those at t
            while n_minus and boxes[n_minus - 1].sides[ax].hi == t:
                n_minus -= 1
            plus = [box for box in boxes[n_minus:] if box.sides[ax].lo > t]
            if n_minus:
                coords.append(cuts + tuple(_helly_scan(boxes[:n_minus])[1][c:]))
            coords += [cuts + ((t, y) if ax == c else (y, t)) for y in ys]
            node = tracer.add(parent, 2, op="two-line-step", bound=bound, axis=ax - c, lo=t,
                              sizes=(n_minus, len(boxes) - n_minus - len(plus), len(plus)))
            stack.append((plus, bound - 2, node, cuts, lines))
            continue
        if dim == 2:  # balanced: k + l + m = bound - 2 split as evenly as can be, largest first
            k, l, m = ((bound - j) // 3 for j in range(3)) if balanced else split_prop3(bound)
        else:
            k = (bound - 1) // 2 if balanced else split_prop1(bound, dim)
        a = _threshold(boxes, [box.sides[c].hi for box in boxes], k, adj, bit)
        if a is None:  # nu(boxes) <= k: re-enter with the tight bound
            stack.append((boxes, k, parent, cuts, None))
            continue
        if dim > 2:
            minus, _, plus, zero = _partition(boxes, c, a, a)
            node = tracer.add(parent, dim, op="split-three", bound=bound, axis=0, lo=a,
                              sizes=(len(minus), len(zero), len(plus)))
            stack += [(plus, bound - k - 1, node, cuts, None),
                      (zero, bound, node, (*cuts, a), None),
                      (minus, k, node, cuts, None)]
            continue
        b = _threshold(boxes, [~box.sides[c].lo for box in boxes], m, adj, bit)
        if b is None:
            stack.append((boxes, m, parent, cuts, None))
            continue
        # The right threshold is ~b. If a > ~b, both packing prefixes overrun
        # each other; every cut point between them leaves {r < a} packing <= k
        # and {l > a} packing <= m, so collapse to the single line x = a (the
        # middle part is then empty and the crossing boxes form a one-line family).
        b = max(a, ~b)
        minus, plusminus, plus, zero = _partition(boxes, c, a, b)
        node = tracer.add(parent, 2, op="split-four", bound=bound, axis=0, lo=a, hi=b,
                          sizes=(len(minus), len(plusminus), len(plus), len(zero)))
        zero.sort(key=lambda box: box.sides[c + 1].hi)  # a sweep step across the lines at a, b
        stack += [(zero, bound, node, cuts, (c + 1, sorted({a, b}))),
                  (plus, m, node, cuts, None), (plusminus, l, node, cuts, None),
                  (minus, k, node, cuts, None)]
    return _report(coords, guarantee, root_nu, tracer)


def pierce_ddim(f: BoxFamily, policy: SplitPolicy | str = SplitPolicy.BALANCED,
                cap: int = DEFAULT_CAP) -> PierceReport:
    """Pierce a family of any dimension.

    Dispatches to the interval sweep at d=1 and the planar recursion at
    d=2. For d >= 3, splits on the first axis left at a packing
    threshold, recurses on the outer parts in the same dimension, and
    pierces the boxes crossing the split hyperplane on the axes after
    it, each point taking the cut as that axis's coordinate.
    """
    policy = SplitPolicy(policy)
    if f.dim == 1:
        check_cap_value(cap)  # the sweep runs no oracle, but the cap's value rule holds
        return pierce_intervals_1d(f)
    return _pierce(f, policy, cap)
