"""Exact integer geometry for families of axis-parallel boxes.

Coordinates are 64-bit integers and boxes are closed products of
coordinate intervals, so touching boxes intersect and every comparison
is exact (no epsilons anywhere). A family may carry a two-line
certificate: two parallel axis-aligned lines such that every member
meets at least one of them.

All values are immutable after construction and every operation is a
pure function, so concurrent reads are safe.
"""

from __future__ import annotations

from typing import NamedTuple

COORD_BOUND = 2**63
_set = object.__setattr__
_new = object.__new__


def _check_coord(value, where: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{where}: coordinate must be an integer, got {value!r}")
    if not -COORD_BOUND <= value < COORD_BOUND:
        raise ValueError(f"{where}: coordinate {value} outside 64-bit range")
    return value


class _Value:
    """Immutable value whose fields are the slots its classes declare, set once by `__init__`;
    equal only to its own class. Pickling and copying rebuild it through `__init__`."""

    __slots__ = ()

    def __init_subclass__(cls, **kw):  # so a subclass with `__slots__ = ()` keeps its fields
        super().__init_subclass__(**kw)
        cls._fields = tuple(name for c in reversed(cls.__mro__)
                            for name in c.__dict__.get("__slots__", ()))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):  # equal iff both rebuild from the same call
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Interval(_Value):
    """Closed integer interval [lo, hi]; lo == hi is a valid degenerate interval."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if not (type(lo) is int and type(hi) is int and -COORD_BOUND <= lo <= hi < COORD_BOUND):
            _check_coord(lo, "interval lo")
            _check_coord(hi, "interval hi")
            raise ValueError(f"interval has lo > hi: [{lo}, {hi}]")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    def contains(self, x: int) -> bool:
        return self.lo <= x <= self.hi

    def overlaps(self, other: Interval) -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


class Point(_Value):
    """Point with one integer coordinate per axis."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]):
        coords = tuple(coords)
        for c in coords:
            if not (type(c) is int and -COORD_BOUND <= c < COORD_BOUND):
                for i, x in enumerate(coords):  # name the first bad coordinate
                    _check_coord(x, f"point coordinate {i}")
        if not coords:
            raise ValueError("point needs at least one coordinate")
        _set(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)


class Box(_Value):
    """Axis-parallel closed box: the product of one Interval per axis."""

    __slots__ = ("sides",)

    def __init__(self, sides: tuple[Interval, ...]):
        sides = tuple(sides)
        if not sides:
            raise ValueError("box needs at least one axis")
        for iv in sides:
            if not isinstance(iv, Interval):
                raise ValueError(f"box side {sides.index(iv)} must be an Interval, got {iv!r}")
        _set(self, "sides", sides)

    @classmethod
    def from_bounds(cls, bounds) -> Box:
        """Build from [(lo, hi), ...] pairs, one per axis."""
        return cls(tuple(Interval(lo, hi) for lo, hi in bounds))

    def bounds(self) -> tuple[tuple[int, int], ...]:
        return tuple((iv.lo, iv.hi) for iv in self.sides)

    @property
    def dim(self) -> int:
        return len(self.sides)

    def contains(self, p: Point) -> bool:
        """True iff lo <= coordinate <= hi on every axis (closed semantics)."""
        if p.dim != self.dim:
            raise ValueError(f"dimension mismatch: box is {self.dim}-d, point is {p.dim}-d")
        return all(iv.contains(c) for iv, c in zip(self.sides, p.coords))


def _checked_box(bounds) -> Box:
    """The Box of one (lo, hi) pair per axis, built without re-checking: the caller has
    checked that there is a pair and that each is two ints lo <= hi in the 64-bit range."""
    sides = []
    for lo, hi in bounds:
        iv = _new(Interval)
        _set(iv, "lo", lo)
        _set(iv, "hi", hi)
        sides.append(iv)
    box = _new(Box)
    _set(box, "sides", tuple(sides))
    return box


def intersects(p: Box, q: Box) -> bool:
    """Closed-box overlap test: true iff the intervals overlap on every axis.

    Touching counts: boxes sharing only a face, edge or corner intersect.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim}-d vs {q.dim}-d")
    return all(a.overlaps(b) for a, b in zip(p.sides, q.sides))


class TwoLines(_Value):
    """Two parallel lines orthogonal to `axis`, at coordinates c1 <= c2.

    A family annotated with this certifies that every member's interval
    on `axis` contains c1 or c2.
    """

    __slots__ = ("axis", "c1", "c2")

    def __init__(self, axis: int, c1: int, c2: int):
        if type(axis) is not int or axis < 0:
            raise ValueError(f"line axis must be a non-negative integer, got {axis!r}")
        _check_coord(c1, "line c1")
        _check_coord(c2, "line c2")
        if c1 > c2:
            raise ValueError(f"lines out of order: c1={c1} > c2={c2}")
        _set(self, "axis", axis)
        _set(self, "c1", c1)
        _set(self, "c2", c2)


class BoxFamily(_Value):
    """Finite multiset of same-dimension boxes, optionally with a two-line certificate."""

    __slots__ = ("dim", "boxes", "lines")

    def __init__(self, dim: int, boxes: tuple[Box, ...], lines: TwoLines | None = None):
        _set(self, "dim", dim)
        _set(self, "boxes", tuple(boxes))
        _set(self, "lines", lines)
        self.__post_init__()

    def __post_init__(self):  # kept apart from __init__, so a wrapper can count validations
        if type(self.dim) is not int or self.dim < 1:
            raise ValueError(f"family dimension must be a positive integer, got {self.dim!r}")
        for i, b in enumerate(self.boxes):
            if not isinstance(b, Box) or len(b.sides) != self.dim:
                raise ValueError(f"box {i} has dimension {b.dim}, family has {self.dim}"
                                 if isinstance(b, Box) else f"box {i} must be a Box, got {b!r}")
        if self.lines is not None:
            ln = self.lines
            if not isinstance(ln, TwoLines):
                raise ValueError(f"lines must be a TwoLines, got {ln!r}")
            if ln.axis >= self.dim:
                raise ValueError(f"line axis {ln.axis} out of range for dimension {self.dim}")
            for i, b in enumerate(self.boxes):
                iv = b.sides[ln.axis]
                if not (iv.contains(ln.c1) or iv.contains(ln.c2)):
                    raise ValueError(
                        f"box {i} violates the two-line condition: "
                        f"[{iv.lo}, {iv.hi}] on axis {ln.axis} misses both {ln.c1} and {ln.c2}"
                    )

    @classmethod
    def of(cls, boxes, lines: TwoLines | None = None, dim: int | None = None) -> BoxFamily:
        """Build a family, inferring the dimension from the first box."""
        boxes = tuple(boxes)
        if dim is None:
            if not boxes:
                raise ValueError("cannot infer dimension of an empty family; pass dim=")
            dim = boxes[0].dim if isinstance(boxes[0], Box) else 1  # a non-box is then refused
        return cls(dim, boxes, lines)

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return iter(self.boxes)

    def replace_boxes(self, boxes, lines: TwoLines | None = None) -> BoxFamily:
        return BoxFamily(self.dim, tuple(boxes), lines)


class FourWaySplit(NamedTuple):
    """Partition of a family at two coordinates a <= b on one axis.

    minus holds boxes entirely left of a (r < a), plus entirely right of
    b (l > b), plusminus strictly between (l > a and r < b), and zero the
    rest; every zero box contains a or b on the split axis.
    """

    minus: BoxFamily
    plusminus: BoxFamily
    plus: BoxFamily
    zero: BoxFamily
    a: int
    b: int


def _check_axis(f: BoxFamily, axis: int) -> None:
    if type(axis) is not int or not 0 <= axis < f.dim:
        raise ValueError(f"axis {axis!r} out of range for dimension {f.dim}")


def _partition(boxes, axis: int, a: int, b: int) -> tuple[list, list, list, list]:
    """The (minus, plusminus, plus, zero) box lists of `split_four`, in input order, unchecked."""
    minus, plusminus, plus, zero = [], [], [], []
    for box in boxes:
        iv = box.sides[axis]
        if iv.hi < a:
            minus.append(box)
        elif iv.lo > b:
            plus.append(box)
        elif iv.lo > a and iv.hi < b:
            plusminus.append(box)
        else:
            zero.append(box)
    return minus, plusminus, plus, zero


def _checked_partition(f: BoxFamily, axis: int, a: int, b: int) -> tuple[list, list, list, list]:
    _check_axis(f, axis)
    _check_coord(a, "split coordinate a")
    _check_coord(b, "split coordinate b")
    if a > b:
        raise ValueError(f"split coordinates out of order: a={a} > b={b}")
    return _partition(f.boxes, axis, a, b)


def split_three(f: BoxFamily, axis: int, x: int) -> tuple[BoxFamily, BoxFamily, BoxFamily]:
    """Partition into ({r < x}, {interval contains x}, {l > x}) on the axis.

    The parts of `split_four(f, axis, x, x)` but its plusminus part, empty
    at a = b; order within each part preserves input order.
    """
    minus, _, plus, zero = _checked_partition(f, axis, x, x)
    return tuple(f.replace_boxes(part, f.lines) for part in (minus, zero, plus))


def split_four(f: BoxFamily, axis: int, a: int, b: int) -> FourWaySplit:
    """Partition at two coordinates a <= b on the axis.

    Membership is decided in order: r < a -> minus; l > b -> plus;
    (l > a and r < b) -> plusminus; everything else -> zero. Zero boxes
    necessarily contain a or b on the axis.
    """
    parts = (f.replace_boxes(part, f.lines) for part in _checked_partition(f, axis, a, b))
    return FourWaySplit(*parts, a, b)


def project_onto_hyperplane(f: BoxFamily, axis: int, x: int) -> BoxFamily:
    """Drop `axis` from every box, requiring each to contain x there.

    Boxes crossing a common hyperplane intersect iff their projections
    do, so packing and piercing structure is preserved. Any two-line
    annotation is dropped. Box count and order are preserved.
    """
    if f.dim == 1:
        raise ValueError("cannot project a 1-d family")
    _check_axis(f, axis)
    _check_coord(x, "hyperplane coordinate")
    for i, b in enumerate(f.boxes):
        if not b.sides[axis].contains(x):
            raise ValueError(f"box {i} does not meet the hyperplane axis{axis}={x}")
    boxes = tuple(Box(b.sides[:axis] + b.sides[axis + 1:]) for b in f.boxes)
    return BoxFamily(f.dim - 1, boxes, None)


def lift_points(points, axis: int, x: int) -> list[Point]:
    """Re-embed (d-1)-dimensional points by inserting coordinate x at `axis`."""
    _check_coord(x, "lift coordinate")
    return [Point(p.coords[:axis] + (x,) + p.coords[axis:]) for p in points]
