"""Ground-truth solvers for small box families.

`nu_exact` computes the packing number (maximum pairwise-disjoint
subfamily) by branch and bound over the intersection graph, one
connected component at a time, and `tau_exact` the piercing number
(minimum point set meeting every box) by iterative-deepening search
over a canonical candidate grid. Both are exact and deterministic:
identical inputs yield identical witnesses. The nu witness is the
lexicographically greatest maximum disjoint subfamily (at the first
index where two candidates differ, the one containing that index
wins), which on a disjoint union is the union of each component's.
The piercing algorithms' planar and d-dim roots run the same search,
`_packing` with `cover`, on the adjacency of the root's boxes in
right-end order, and also prune on a greedy clique-cover bound (Tomita
and Seki's colouring bound, on bitsets as in San Segundo et al.). That
one adjacency also serves every threshold probe of the piercing
(`_max_disjoint` on a prefix mask).

Exactness is what the constructive piercing algorithms lean on for
their certified guarantees, so families larger than the configured cap
are refused outright instead of being solved approximately.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from operator import or_
from typing import NamedTuple

from .geometry import DEFAULT_CAP, BoxFamily, CapExceeded, Point, intersects


def check_cap_value(cap: int) -> None:
    if type(cap) is not int or cap < 0:
        raise ValueError(f"cap must be a non-negative integer, got {cap!r}")


def check_cap(f: BoxFamily, cap: int) -> None:
    check_cap_value(cap)
    if len(f) > cap:
        raise CapExceeded(f"family has {len(f)} boxes, exact-oracle cap is {cap}")


class NuResult(NamedTuple):
    """Packing number with a witness of pairwise-disjoint box indices."""

    nu: int
    witness: tuple[int, ...]


class TauResult(NamedTuple):
    """Piercing number with a witness point set meeting every box."""

    tau: int
    witness: tuple[Point, ...]


def _meeting(los, his, starts, ends, masks: list[int]) -> None:
    """On one axis, AND into masks[j] the boxes whose side meets [starts[j], ends[j]].

    Box i's side is [los[i], his[i]]; it meets [a, b] iff los[i] <= b
    and his[i] >= a. Either condition selects a prefix of the boxes
    sorted by lo or by hi, found by bisection, so no side is compared
    with a span one by one.
    """
    n = len(los)
    by_lo = sorted(range(n), key=los.__getitem__)
    by_hi = sorted(range(n), key=his.__getitem__)
    lo_upto = list(itertools.accumulate((1 << i for i in by_lo), or_, initial=0))
    hi_from = list(itertools.accumulate((1 << i for i in reversed(by_hi)), or_, initial=0))
    sorted_lo, sorted_hi = sorted(los), sorted(his)
    for j in range(len(masks)):
        masks[j] &= (lo_upto[bisect_right(sorted_lo, ends[j])]
                     & hi_from[n - bisect_left(sorted_hi, starts[j])])


def _adjacency(boxes) -> list[int]:
    """Bitmask per box of the other boxes it intersects.

    Boxes intersect iff their sides meet on every axis, so a box's mask
    is the AND over the axes of the boxes meeting its side there, less
    its own bit.
    """
    n = len(boxes)
    adj = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
    for ax in range(boxes[0].dim if n else 0):
        los = [b.sides[ax].lo for b in boxes]
        his = [b.sides[ax].hi for b in boxes]
        _meeting(los, his, los, his, adj)
    return adj


def _greedy_disjoint(adj: list[int], avail: int) -> int:
    """Greedily take compatible boxes in index order; returns the chosen mask."""
    taken = blocked = 0
    while avail:
        bit = avail & -avail
        avail ^= bit
        if not bit & blocked:
            taken |= bit
            blocked |= adj[bit.bit_length() - 1]
    return taken


def _components(adj: list[int]):
    """Yield the connected components of the intersection graph as bitmasks."""
    rest = (1 << len(adj)) - 1
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                frontier &= frontier - 1
                reach |= adj[bit.bit_length() - 1]
            frontier = reach & ~comp
            comp |= frontier
        rest &= ~comp
        yield comp


def _max_disjoint(adj: list[int], avail: int, enough: int | None = None,
                  seed: int | None = None, cover: bool = False) -> int:
    """Lexicographically greatest maximum disjoint subset of `avail`, as a mask.

    Branch and bound on the lowest-index available box, include-branch
    first, so leaves come in decreasing lexicographic order and the first
    one of maximum size is kept. The greedy seed (the lexicographically
    greatest maximal set) only prunes; it is the answer only when it is
    already maximum. The search runs on an explicit stack, so a deep
    component needs no Python recursion.

    With `enough`, it decides "does `avail` pack `enough`?": it returns
    the seed if that has `enough` boxes, else the first leaf that beats
    an incumbent of size `enough - 1`, else the (smaller) seed.

    `seed`, a disjoint subset of `avail`, replaces the greedy one: a
    threshold probe passes the greedy set taken in its own end order.

    With `cover`, each pop is also pruned on `_cliques`. Both tests
    prune only what cannot strictly beat the incumbent, so the answer
    is the same either way.
    """
    best = _greedy_disjoint(adj, avail) if seed is None else seed
    best_size = best.bit_count()
    if enough is not None:
        if best_size >= enough:
            return best
        best_size = enough - 1
    stack = [(avail, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        avail, chosen, size = pop()
        count = avail.bit_count()
        if size + count <= best_size or cover and size + _cliques(adj, avail) <= best_size:
            continue
        while avail:  # follow include branches, leaving each exclude branch on the stack
            bit = avail & -avail
            avail ^= bit
            if size + count - 1 > best_size:  # else it is pruned when popped: best only grows
                push((avail, chosen, size))
            avail &= ~adj[bit.bit_length() - 1]
            chosen |= bit
            size += 1
            count = avail.bit_count()
            if size + count <= best_size:
                break
        else:
            if enough is not None:
                return chosen
            best, best_size = chosen, size
    return best


def _cliques(adj: list[int], avail: int) -> int:
    """Parts of a greedy cover of `avail` by pairwise-intersecting boxes: an upper bound on its nu.

    Each part starts at the lowest box left and grows by the lowest box
    meeting every member so far. A disjoint subfamily takes at most one
    box per part; this is the colouring bound of max-clique search, on
    the complement graph.
    """
    parts = 0
    while avail:
        parts += 1
        meets = avail
        while meets:
            bit = meets & -meets
            avail ^= bit
            meets &= adj[bit.bit_length() - 1]
    return parts


def _packing(adj: list[int], cover: bool = False) -> int:
    """The witness of `nu_exact` as a mask: each component's search, joined."""
    best = 0
    for comp in _components(adj):
        best |= _max_disjoint(adj, comp, cover=cover)
    return best


def nu_exact(f: BoxFamily, cap: int = DEFAULT_CAP) -> NuResult:
    """Exact packing number: maximum independent set in the intersection graph.

    The packing number adds up over connected components, so each
    component is searched on its own and the results are joined. The
    witness is the lexicographically greatest maximum disjoint
    subfamily, the same one a single search over the whole family
    returns: on a disjoint union that set is the union of each
    component's lexicographically greatest one.
    """
    check_cap(f, cap)
    best = _packing(_adjacency(f.boxes))
    witness = tuple(i for i in range(len(f)) if (best >> i) & 1)
    return NuResult(len(witness), witness)


def _grid_axes(boxes) -> list[list[int]]:
    """The candidate grid's coordinates: per axis, the distinct left endpoints, increasing."""
    return [sorted({b.sides[ax].lo for b in boxes}) for ax in range(boxes[0].dim)]


def candidate_grid(f: BoxFamily) -> list[Point]:
    """Canonical piercing positions: product of distinct left endpoints per axis.

    Any piercing point can slide, per axis independently, down to the
    largest left endpoint among boxes containing it without leaving any
    of them, so an optimal piercing using only these grid points always
    exists. Points come out in lexicographic order.
    """
    if not f.boxes:
        raise ValueError("candidate grid of an empty family is undefined")
    return [Point(coords) for coords in itertools.product(*_grid_axes(f.boxes))]


def tau_exact(f: BoxFamily, cap: int = DEFAULT_CAP) -> TauResult:
    """Exact piercing number over the candidate grid.

    Iterative deepening from t = nu (tau >= nu): at depth limit t, pick
    the lowest-index uncovered box and branch on the grid points inside
    it, in grid order; the first feasible t is the piercing number. A
    greedy pairwise-disjoint count of the uncovered boxes prunes
    branches that cannot finish within the remaining depth. The search
    runs on an explicit stack, so a large cap hits no recursion limit.

    A grid point is its rank in `candidate_grid` order, and its cover
    (the boxes it lies in) and the ranks inside each box are built one
    axis at a time: a point is built only for the witness.
    """
    check_cap(f, cap)
    boxes = f.boxes
    if not boxes:
        return TauResult(0, ())
    n = len(boxes)
    adj = _adjacency(boxes)
    axes = _grid_axes(boxes)
    # A cover is the AND over the axes of the boxes whose side holds the point's
    # coordinate there, and the ranks inside box i are the product of its side's
    # rank ranges; both grow axis by axis in product order, the last axis fastest.
    covers, inside = [-1], [[0]] * n
    for ax, coords in enumerate(axes):
        los = [b.sides[ax].lo for b in boxes]
        his = [b.sides[ax].hi for b in boxes]
        m = len(coords)
        holds = [-1] * m
        _meeting(los, his, coords, coords, holds)
        covers = [cover & hold for cover in covers for hold in holds]
        spans = [range(bisect_left(coords, lo), bisect_right(coords, hi)) for lo, hi in zip(los, his)]
        inside = [[g * m + r for g in ranks for r in span] for ranks, span in zip(inside, spans)]

    def point(g: int) -> Point:
        coords = []
        for axis in reversed(axes):
            g, r = divmod(g, len(axis))
            coords.append(axis[r])
        return Point(coords[::-1])

    # One point per box always suffices, so some t <= n is feasible.
    for t in range(_packing(adj).bit_count(), n + 1):
        stack = [((1 << n) - 1, t, ())]
        while stack:
            uncovered, depth_left, chosen = stack.pop()
            if not uncovered:
                return TauResult(t, tuple(map(point, chosen)))
            if depth_left and _greedy_disjoint(adj, uncovered).bit_count() <= depth_left:
                i = (uncovered & -uncovered).bit_length() - 1
                # pushed in reverse, so children pop in grid order
                stack.extend((uncovered & ~covers[g], depth_left - 1, chosen + (g,))
                             for g in reversed(inside[i]))
    raise AssertionError("unreachable: piercing with one point per box must exist")


def _helly_scan(boxes) -> tuple[int | None, list[int]]:
    """Position of the first box whose prefix packs 2, or None; and the running max lo.

    Boxes pairwise intersect iff max lo <= min hi on every axis (Helly
    per axis), so one pass over `boxes` (non-empty), in the order given,
    keeping those extremes finds that box. With None, the max lo per
    axis is a point in every box.
    """
    max_lo = [iv.lo for iv in boxes[0].sides]
    min_hi = [iv.hi for iv in boxes[0].sides]
    for i, box in enumerate(boxes):
        for ax, iv in enumerate(box.sides):
            if iv.lo > max_lo[ax]:
                max_lo[ax] = iv.lo
            if iv.hi < min_hi[ax]:
                min_hi[ax] = iv.hi
            if max_lo[ax] > min_hi[ax]:
                return i, max_lo
    return None, max_lo


def common_point(f: BoxFamily) -> Point:
    """A point in every member of a pairwise-intersecting family: the max lo per axis.

    Else the error names box i, the first that an earlier box misses (one
    `_helly_scan` in index order), and j < i, the first box disjoint from i.
    """
    if not f.boxes:
        raise ValueError("common point of an empty family is undefined")
    i, corner = _helly_scan(f.boxes)
    if i is None:
        return Point(tuple(corner))
    j = next(j for j in range(i) if not intersects(f.boxes[j], f.boxes[i]))
    raise ValueError(f"boxes {j} and {i} are disjoint; no common point exists")
