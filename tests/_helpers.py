"""Independent reference oracles used only by the tests.

These deliberately avoid the library's search code: packing numbers come
from full subset enumeration, piercing numbers from exhaustive grid
subset enumeration, and intersection from candidate-corner containment,
so they can referee the production implementations. `reference_tau` is
the one exception: it repeats the exact piercing search step for step,
over a grid of points and pairwise tests, so that its witness can be
compared with the library's, point by point.
"""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from boxpierce import Box, BoxFamily, Point, TauResult, candidate_grid, intersects


def family(bounds_list, lines=None, dim=None) -> BoxFamily:
    return BoxFamily.of([Box.from_bounds(b) for b in bounds_list], lines=lines, dim=dim)


def family_1d(pairs, lines=None) -> BoxFamily:
    return family([(p,) for p in pairs], lines=lines, dim=1)


def families(max_size: int, starts: tuple[int, int] = (-8, 8), width: int = 6,
             dims: tuple[int, int] = (1, 3)):
    """Families of up to `max_size` boxes in `dims` dimensions, dense enough that most intersect.

    Each side starts in the range `starts` and is at most `width` long;
    narrow starts make boxes share coordinates, and width 0 makes boxes
    degenerate.
    """
    return st.integers(*dims).flatmap(
        lambda d: st.lists(
            st.tuples(*[
                st.tuples(st.integers(*starts), st.integers(0, width)) for _ in range(d)
            ]).map(lambda sides: Box.from_bounds([(lo, lo + w) for lo, w in sides])),
            max_size=max_size,
        ).map(lambda bs: BoxFamily.of(bs, dim=d))
    )


# Small enough for the brute-force references.
small_families = families(10)


def brute_force_nu_witness(f: BoxFamily) -> tuple[int, ...]:
    """Lexicographically greatest maximum pairwise-disjoint subset of indices.

    Sizes are tried from the largest down, each in itertools order, and
    the first disjoint subset wins: at the first index where two subsets
    of one size differ, the earlier one in that order contains it.
    """
    boxes = f.boxes
    for r in range(len(boxes), 0, -1):
        for subset in itertools.combinations(range(len(boxes)), r):
            if all(not intersects(boxes[i], boxes[j])
                   for i, j in itertools.combinations(subset, 2)):
                return subset
    return ()


def brute_force_nu(f: BoxFamily) -> int:
    """Largest pairwise-disjoint subset, by checking all 2^n subsets."""
    return len(brute_force_nu_witness(f))


def brute_force_tau(f: BoxFamily, limit: int | None = None) -> int | None:
    """Smallest grid subset hitting every box, by exhaustive enumeration.

    Tries sizes 1..limit (default: number of boxes) and returns None if
    nothing within the limit works.
    """
    boxes = f.boxes
    if not boxes:
        return 0
    grid = candidate_grid(f)
    top = len(boxes) if limit is None else limit
    for t in range(1, top + 1):
        for subset in itertools.combinations(grid, t):
            if all(any(b.contains(p) for p in subset) for b in boxes):
                return t
    return None


def reference_tau(f: BoxFamily) -> TauResult:
    """`tau_exact`'s search over a grid of `Point`s: the same tau and the same witness.

    Iterative deepening from nu; at depth limit t, branch on the grid
    points inside the lowest-index uncovered box, in grid order, and
    prune when a greedy disjoint set (in index order) of the uncovered
    boxes is larger than the depth left. Covers come from
    `Box.contains`, the adjacency from pairwise `intersects`, and nu
    from `brute_force_nu`.
    """
    boxes = f.boxes
    n = len(boxes)
    if not n:
        return TauResult(0, ())
    grid = [Point(c) for c in itertools.product(
        *(sorted({b.sides[ax].lo for b in boxes}) for ax in range(f.dim)))]
    covers = [sum(1 << i for i, b in enumerate(boxes) if b.contains(p)) for p in grid]
    inside = [[g for g, mask in enumerate(covers) if mask >> i & 1] for i in range(n)]
    adj = [sum(1 << j for j in range(n) if j != i and intersects(boxes[i], boxes[j]))
           for i in range(n)]

    def greedy_count(avail: int) -> int:
        taken = blocked = 0
        for i in range(n):
            if avail >> i & 1 and not blocked >> i & 1:
                taken += 1
                blocked |= adj[i]
        return taken

    for t in range(brute_force_nu(f), n + 1):
        stack = [((1 << n) - 1, t, ())]
        while stack:
            uncovered, depth_left, chosen = stack.pop()
            if not uncovered:
                return TauResult(t, tuple(grid[g] for g in chosen))
            if depth_left and greedy_count(uncovered) <= depth_left:
                i = (uncovered & -uncovered).bit_length() - 1
                stack.extend((uncovered & ~covers[g], depth_left - 1, chosen + (g,))
                             for g in reversed(inside[i]))
    raise AssertionError("unreachable: piercing with one point per box must exist")


def corner_candidate_intersects(p: Box, q: Box) -> bool:
    """Boxes intersect iff some per-axis choice of left endpoints lies in both."""
    choices = [(a.lo, b.lo) for a, b in zip(p.sides, q.sides)]
    return any(
        p.contains(Point(c)) and q.contains(Point(c))
        for c in itertools.product(*choices)
    )


def is_sound(f: BoxFamily, points) -> bool:
    return all(any(b.contains(p) for p in points) for b in f.boxes)


def unsound_indices(f: BoxFamily, points) -> list[int]:
    return [i for i, b in enumerate(f.boxes) if not any(b.contains(p) for p in points)]
