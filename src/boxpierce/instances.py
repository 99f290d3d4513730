"""Instance and report files: canonical JSON with integer coordinates.

An instance document holds `dim`, `boxes` (per-axis [lo, hi] integer
pairs), an optional `lines` certificate and optional `meta`. Writing is
canonical (sorted keys, fixed indentation, trailing newline), so
write(read(file)) reproduces the file byte for byte and equal families
serialize identically. Reading checks the document's shape; each value
is checked by the geometry constructor that builds it, whose error is
re-raised as `InstanceFormatError` naming the location (`boxes[i][ax]`,
`lines`, `points[i]`, or `instance` for rules on the whole family).

A pierce report document embeds the instance it was computed from,
which lets `verify` consume a report from a pipe without a separate
instance argument. An error in the embedded instance names its
location under `instance.` (`instance.boxes[0][0]`).
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple, NoReturn

from .geometry import (Box, BoxFamily, Interval, Point, TwoLines, _boxes_of_rows,
                       _checked_family)

if TYPE_CHECKING:
    from .piercing import PierceReport


class InstanceFormatError(ValueError):
    """Malformed instance or report document; the message names the location."""


def _finite(literal: str) -> float:
    """Parse a float or constant literal, refusing NaN, Infinity and overflow such as 1e400."""
    value = float(literal)
    if not math.isfinite(value):
        raise InstanceFormatError(f"non-finite number {literal!r} is not a valid coordinate")
    return value


def _loads(text: str) -> Any:
    try:
        return json.loads(text, parse_constant=_finite, parse_float=_finite)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:  # arrays or objects nested past the interpreter's recursion limit
        raise InstanceFormatError("invalid JSON: nested too deeply") from None


def _build(make, args, where: str, *at):
    """Call a geometry constructor on `args`; its ValueError becomes an InstanceFormatError.

    The error names the location `where.format(*at)`, which is formatted
    only when the constructor raises.
    """
    try:
        return make(*args)
    except ValueError as exc:
        raise InstanceFormatError(f"{where.format(*at)}: {exc}") from exc


class Instance(NamedTuple):
    """A family plus free-form metadata (generator tag, seed, description)."""

    family: BoxFamily
    meta: Mapping[str, Any] | None = None


def dumps_canonical(obj: Any) -> str:
    """Exactly `json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, built at C-encoder speed.

    Any `indent` sends `json` to its pure-Python encoder, so only small
    values go through it. A dict with `str` keys is written key by key,
    and a list whose items are integer arrays of one shape (`boxes`,
    `points`) is encoded once in compact form by the C encoder, then
    laid out through one `%` template of its first item's layout. Other
    lists and dicts go through the indenting encoder and are re-indented,
    which is safe because JSON text never holds a raw newline; a scalar
    reads the same either way, so the C encoder writes it.
    """
    return _dump(obj, "\n") + "\n"


# what json.dumps builds per call, built once
_compact = json.JSONEncoder(separators=(",", ":")).encode
_indented = json.JSONEncoder(sort_keys=True, indent=2).encode
# every integer leaf of compact JSON becomes a run of 0s; brackets and commas become gaps
_LEAF_TO_ZERO = str.maketrans("-123456789", "0000000000")
_SEPARATORS_TO_SPACE = str.maketrans("[],", "   ")


def _dump(obj: Any, nl: str) -> str:
    """The indented JSON of `obj`, whose lines after the first start with `nl`."""
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        inner = nl + "  "
        items = []
        for k in sorted(obj):  # a loop, not a generator, so each nesting level costs one frame
            items.append(f"{inner}{_compact(k)}: {_dump(obj[k], inner)}")
        return "{" + ",".join(items) + nl + "}"
    if type(obj) in (list, tuple) and obj:
        compact = _compact(obj)
        shape = _shape(_compact(obj[0]))
        if not shape.strip("[],0") and _shape(compact) == f"[{','.join([shape] * len(obj))}]":
            # every item is an integer array shaped like the first
            inner = nl + "  "
            item = _indented(json.loads(shape)).replace("0", "%s").replace("\n", inner)
            template = f"[{inner}{(',' + inner).join([item] * len(obj))}{nl}]"
            return template % tuple(compact.translate(_SEPARATORS_TO_SPACE).split())
    if isinstance(obj, (dict, list, tuple)):
        return _indented(obj).replace("\n", nl)
    return _compact(obj)  # a scalar encodes alike with and without indent


def _shape(compact: str) -> str:
    """`compact` JSON with each integer written as 0."""
    shape = compact.translate(_LEAF_TO_ZERO)
    while "00" in shape:
        shape = shape.replace("00", "0")
    return shape


def instance_to_obj(inst: Instance) -> dict:
    return _instance_obj(inst, [[[iv.lo, iv.hi] for iv in b.sides] for b in inst.family.boxes])


def _instance_obj(inst: Instance, rows: list) -> dict:
    """The canonical object of `inst`, whose `boxes` are `rows`: each box's [lo, hi] lists."""
    fam = inst.family
    obj: dict[str, Any] = {"dim": fam.dim, "boxes": rows}
    if fam.lines is not None:
        obj["lines"] = {"axis": fam.lines.axis, "c1": fam.lines.c1, "c2": fam.lines.c2}
    if inst.meta:
        obj["meta"] = dict(inst.meta)
    return obj


def instance_to_json(inst: Instance | BoxFamily) -> str:
    if isinstance(inst, BoxFamily):
        inst = Instance(inst)
    return dumps_canonical(instance_to_obj(inst))


def obj_to_instance(obj: Any) -> Instance:
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"instance document must be an object, got {type(obj).__name__}")
    dim = obj.get("dim")
    if type(dim) is not int or dim < 1:
        raise InstanceFormatError(f"dim: expected an integer >= 1, got {dim!r}")
    raw_boxes = obj.get("boxes")
    if not isinstance(raw_boxes, list):
        raise InstanceFormatError("boxes: expected a list")
    boxes = _boxes_of_rows(raw_boxes, dim)
    if len(boxes) < len(raw_boxes):
        _refuse_row(raw_boxes[len(boxes)], len(boxes), dim)
    lines = None
    if obj.get("lines") is not None:
        raw_lines = obj["lines"]
        if not isinstance(raw_lines, dict):
            raise InstanceFormatError("lines: expected an object with axis, c1, c2")
        lines = _build(TwoLines, (raw_lines.get("axis"), raw_lines.get("c1"), raw_lines.get("c2")),
                       "lines")
    meta = obj.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise InstanceFormatError("meta: expected an object")
    return Instance(_build(_checked_family, (dim, tuple(boxes), lines), "instance"), meta)


def _refuse_row(raw: Any, i: int, dim: int) -> NoReturn:
    """Raise the located error of `raw`, row `i` of `boxes`, which `_boxes_of_rows` refused."""
    if not isinstance(raw, list) or len(raw) != dim:
        raise InstanceFormatError(f"boxes[{i}]: expected {dim} [lo, hi] pairs")
    for ax, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InstanceFormatError(f"boxes[{i}][{ax}]: expected an [lo, hi] pair")
        _build(Interval, pair, "boxes[{}][{}]", i, ax)  # raises Interval's own message
    raise AssertionError(f"boxes[{i}] is a valid row")


def instance_from_json(text: str) -> Instance:
    return obj_to_instance(_loads(text))


def _read_text(path: str) -> str:
    """The UTF-8 text of a file, or of stdin for `-`; undecodable bytes are a format error."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"invalid UTF-8 at byte {exc.start}: {exc.reason}") from exc


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_instance(path: str) -> Instance:
    return instance_from_json(_read_text(path))


def read_instance(path: str) -> BoxFamily:
    """Read a family; metadata is available via load_instance."""
    return load_instance(path).family


def write_instance(inst: Instance | BoxFamily, path: str) -> None:
    _write_text(path, instance_to_json(inst))


# ---------------------------------------------------------------------------
# pierce reports


def report_to_obj(report: PierceReport, algo: str, policy: str | None,
                  instance: Instance | BoxFamily) -> dict:
    if isinstance(instance, BoxFamily):
        instance = Instance(instance)
    return _report_obj(report, algo, policy, instance_to_obj(instance))


def _report_obj(report: PierceReport, algo: str, policy: str | None, instance_obj: dict) -> dict:
    """The report object embedding `instance_obj`, the canonical object of its instance."""
    return {
        "algo": algo,
        "policy": policy,
        "size": report.size,
        "guarantee": report.guarantee,
        "nu_used": report.nu_used,
        "points": [list(p.coords) for p in report.points],
        "trace": [t._asdict() for t in report.trace],
        "instance": instance_obj,
    }


def report_to_json(report: PierceReport, algo: str, policy: str | None,
                   instance: Instance | BoxFamily) -> str:
    return dumps_canonical(report_to_obj(report, algo, policy, instance))


def points_from_obj(obj: Any, dim: int) -> list[Point]:
    if not isinstance(obj, list):
        raise InstanceFormatError("points: expected a list")
    points = []
    for i, raw in enumerate(obj):
        if not isinstance(raw, list) or len(raw) != dim:
            raise InstanceFormatError(f"points[{i}]: expected {dim} coordinates")
        points.append(_build(Point, (tuple(raw),), "points[{}]", i))
    return points


def parse_points_document(text: str, dim: int | None = None
                          ) -> tuple[list[Point], Instance | None, float | None]:
    """Parse a report or bare points document.

    Returns (points, embedded instance or None, claimed guarantee or
    None). Accepts the output of `pierce` as well as a plain object with
    a `points` field. Every point must have `dim` coordinates; without
    `dim`, that of the embedded instance, else of the first point.
    """
    obj = _loads(text)
    if not isinstance(obj, dict) or "points" not in obj:
        raise InstanceFormatError("expected an object with a 'points' field")
    instance = None
    if obj.get("instance") is not None:
        try:
            instance = obj_to_instance(obj["instance"])
        except InstanceFormatError as exc:  # name the document, apart from an --instance file
            raise InstanceFormatError(f"instance.{exc}") from exc
    guarantee = obj.get("guarantee")
    if guarantee is not None:
        if type(guarantee) not in (int, float):  # bool is not a number here
            raise InstanceFormatError("guarantee: expected a number")
        try:
            guarantee = float(guarantee)
        except OverflowError:  # an integer literal past a double's range
            raise InstanceFormatError("guarantee: number out of range") from None
    if dim is None and instance is not None:
        dim = instance.family.dim
    raw_points = obj["points"]
    if dim is None:
        if not isinstance(raw_points, list):
            raise InstanceFormatError("points: expected a list")
        if raw_points and isinstance(raw_points[0], list):
            dim = len(raw_points[0])
        else:
            dim = 1
    points = points_from_obj(raw_points, dim)
    return points, instance, guarantee


# ---------------------------------------------------------------------------
# verification


class VerifyReport(NamedTuple):
    """Containment check of a point set against a family.

    hits_all is true iff violations (indices of unhit boxes) is empty.
    """

    hits_all: bool
    size: int
    guarantee: float | None = None
    violations: tuple[int, ...] = ()


def verify_piercing(family: BoxFamily, points, guarantee: float | None = None) -> VerifyReport:
    """Recompute containment of every box against the point list.

    Every point must have the family's dimension (ValueError otherwise).
    The points are sorted once; each box bisects its axis-0 range and
    tests only the points inside it, so 1-d input takes
    O((n + |P|) log |P|).
    """
    points = list(points)
    for j, p in enumerate(points):
        if p.dim != family.dim:
            raise ValueError(f"dimension mismatch: family is {family.dim}-d, "
                             f"point {j} is {p.dim}-d")
    coords = sorted(p.coords for p in points)
    xs = [c[0] for c in coords]
    violations = tuple(i for i, b in enumerate(family.boxes) if not _pierced(b, coords, xs))
    return VerifyReport(not violations, len(points), guarantee, violations)


def _pierced(box: Box, coords: list[tuple[int, ...]], xs: list[int]) -> bool:
    """True iff some point of `coords` (sorted, with axis-0 values `xs`) lies in `box`."""
    first, rest = box.sides[0], box.sides[1:]
    k, hi = bisect_left(xs, first.lo), first.hi
    while k < len(xs) and xs[k] <= hi:
        if not rest or all(iv.lo <= x <= iv.hi for iv, x in zip(rest, coords[k][1:])):
            return True
        k += 1
    return False


def verify_to_obj(vr: VerifyReport) -> dict:
    return {k: v for k, v in vr._asdict().items() if v is not None}
