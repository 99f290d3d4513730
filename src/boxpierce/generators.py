"""Instance generators: the extremal two-line families and seeded random input.

The 5-box gadget realizes the worst case of the two-line bound: its
intersection graph is the 5-cycle, so no point can meet three of its
boxes, giving packing number 2 but piercing number 3. Tiling disjoint
translated copies (plus one isolated box when the target packing number
is odd) scales this to packing number n with piercing number
floor(3n/2), matching the two-line guarantee exactly.

Random generation is deterministic under (spec, seed); the generator
tag below is written into instance metadata so files are reproducible
only when the tag matches.
"""

from __future__ import annotations

import random

from .geometry import (COORD_BOUND, Box, BoxFamily, Interval, TwoLines, _boxes_of_rows,
                       _checked_family, _set, _Value)

GADGET_TAG = "boxpierce.gadget/v1"
EXTREMAL_TAG = "boxpierce.extremal/v1"
RANDOM_TAG = "boxpierce.random/v1"

#: Gadget boxes, cyclically intersecting: each meets the next (mod 5) and
#: no other; every box meets the line y=0 or y=2.
_GADGET_BOUNDS = (
    ((0, 7), (0, 1)),
    ((0, 1), (0, 5)),
    ((0, 4), (2, 5)),
    ((3, 6), (2, 5)),
    ((6, 7), (0, 5)),
)
_GADGET_LINES = TwoLines(axis=1, c1=0, c2=2)

# x-extent of the gadget is 7; translating by 10 keeps copies disjoint.
_COPY_STRIDE = 10


def gen_gadget() -> BoxFamily:
    """The 5-box two-line family with packing number 2 and piercing number 3."""
    boxes = tuple(Box.from_bounds(b) for b in _GADGET_BOUNDS)
    return BoxFamily(2, boxes, _GADGET_LINES)


def _shift_x(box: Box, dx: int) -> Box:
    x, rest = box.sides[0], box.sides[1:]
    return Box((Interval(x.lo + dx, x.hi + dx),) + rest)


def gen_extremal_two_line(n: int) -> BoxFamily:
    """Two-line family with packing number n and piercing number floor(3n/2).

    floor(n/2) disjoint gadget copies translated along x; when n is odd,
    one extra box meeting the lower line, disjoint from every copy.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"need n >= 1, got {n!r}")
    gadget = gen_gadget()
    boxes: list[Box] = []
    copies = n // 2
    for i in range(copies):
        boxes.extend(_shift_x(b, _COPY_STRIDE * i) for b in gadget.boxes)
    if n % 2 == 1:
        x0 = _COPY_STRIDE * copies
        boxes.append(Box.from_bounds(((x0, x0 + 1), (0, 1))))
    return BoxFamily(2, tuple(boxes), _GADGET_LINES)


def _tuple(value):
    """`value` as a tuple if it is iterable, else as given, for the checks to refuse by name."""
    try:
        return tuple(value)
    except TypeError:
        return value


def _pair(value) -> tuple:
    """The two items of a tuple of two, else (None, None), which every check refuses."""
    return value if type(value) is tuple and len(value) == 2 else (None, None)


class RandomSpec(_Value):
    """Deterministic random-family parameters.

    `two_line` is a bool. With True (planar only), each box's interval
    on axis 1 is clamped to contain one of the two lines, chosen
    uniformly, so the two-line condition holds by construction. `lines`
    (c1, c2, in either order) places those lines; it is refused without
    two_line. Both pairs are stored as tuples, whatever sequence the
    caller passed.
    """

    __slots__ = ("n_boxes", "dim", "coord_range", "seed", "two_line", "lines")

    def __init__(self, n_boxes: int, dim: int = 2, coord_range: tuple[int, int] = (0, 20),
                 seed: int = 0, two_line: bool = False, lines: tuple[int, int] | None = None):
        coord_range, lines = _tuple(coord_range), None if lines is None else _tuple(lines)
        for name, value in zip(self._fields, (n_boxes, dim, coord_range, seed, two_line, lines)):
            _set(self, name, value)
        if type(self.n_boxes) is not int or self.n_boxes < 0:
            raise ValueError(f"n_boxes must be a non-negative integer, got {self.n_boxes!r}")
        if type(self.dim) is not int or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if type(self.seed) is not int:  # None would seed from the clock, unrepeatably
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        lo, hi = _pair(self.coord_range)
        if not (type(lo) is int and type(hi) is int and -COORD_BOUND <= lo <= hi < COORD_BOUND):
            raise ValueError(f"coordinate range needs 64-bit ints lo <= hi, got {self.coord_range}")
        if type(self.two_line) is not bool:  # "no" is truthy, and would build a two-line family
            raise ValueError(f"two_line must be a bool, got {self.two_line!r}")
        if self.two_line:
            if self.dim != 2:
                raise ValueError("two-line instances are planar; need dim=2")
            c1, c2 = self.effective_lines() if self.lines is None else _pair(self.lines)
            if not (type(c1) is int and type(c2) is int
                    and lo <= min(c1, c2) and max(c1, c2) <= hi):
                raise ValueError(f"lines {self.lines!r} are not two ints inside {self.coord_range}")
        elif self.lines is not None:
            raise ValueError("lines are only used by two-line instances; need two_line=True")

    def effective_lines(self) -> tuple[int, int]:
        if self.lines is not None:
            c1, c2 = self.lines
            return (c1, c2) if c1 <= c2 else (c2, c1)
        lo, hi = self.coord_range
        return (lo + (hi - lo) // 3, lo + 2 * (hi - lo) // 3)


def _draws(rng: random.Random, lo: int, hi: int):
    """A function drawing what `rng.randint(lo, hi)` draws, by the rule in `gen_random`."""
    getrandbits, width = rng.getrandbits, hi - lo + 1
    k = width.bit_length()

    def draw() -> int:
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        return lo + r
    return draw


def _random_rows(spec: RandomSpec):
    """Yield `gen_random`'s boxes one at a time, each as a list of [lo, hi] lists."""
    rng = random.Random(spec.seed)
    coord, coin = _draws(rng, *spec.coord_range), _draws(rng, 0, 1)
    c1, c2 = spec.effective_lines() if spec.two_line else (0, 0)
    for _ in range(spec.n_boxes):
        row = []
        for _ax in range(spec.dim):
            u, v = coord(), coord()
            row.append([u, v] if u <= v else [v, u])
        if spec.two_line:
            c = c2 if coin() else c1
            u, v = row[1]
            row[1] = [min(u, c), max(v, c)]
        yield row


def gen_random(spec: RandomSpec) -> BoxFamily:
    """Random family, byte-for-byte reproducible under a fixed spec.

    Per box and axis, two endpoints are drawn from the coordinate range
    (two ints lo <= hi inside the 64-bit range; RandomSpec refuses any
    other) and swapped into order; degenerate intervals are allowed. The
    format contract fixes the draw order (endpoints, then the two-line
    clamp choice, box by box) and each draw: `lo + r`, with r the first
    `rng.getrandbits(k)` below `width = hi - lo + 1`, `k = width.bit_length()`
    and `rng = random.Random(seed)`; the clamp choice draws over (0, 1), 0
    choosing c1. This is `Random.randint`'s rule on CPython 3.10-3.13, so
    a width of 1 still draws `getrandbits(1)`.
    """
    # every row is in range by RandomSpec's checks, so the family holds every row
    boxes = tuple(_boxes_of_rows(_random_rows(spec), spec.dim))
    lines = TwoLines(1, *spec.effective_lines()) if spec.two_line else None
    return _checked_family(spec.dim, boxes, lines)


def random_meta(spec: RandomSpec) -> dict:
    """Instance metadata identifying the generator and its parameters."""
    meta = {
        "generator": RANDOM_TAG,
        "seed": spec.seed,
        "description": (
            f"random family: {spec.n_boxes} boxes, dim={spec.dim}, "
            f"coords in [{spec.coord_range[0]}, {spec.coord_range[1]}]"
            + (", two-line" if spec.two_line else "")
        ),
    }
    return meta
