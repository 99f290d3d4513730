"""Correctness gate, independent of the library's own verify path.

Every check works on raw ((lo, hi), ...) tuples and coordinate tuples,
never on `verify_piercing` or the library's intersection test. Any
mismatch raises `GateError`, which aborts the run: a wrong answer is
never counted as a failed op.
"""

from __future__ import annotations

import bisect
import json


class GateError(AssertionError):
    """The program returned a wrong answer."""


def _fail(op, msg: str):
    raise GateError(f"{op.label}: {msg}")


def raw_bounds(family) -> list[tuple[tuple[int, int], ...]]:
    return [tuple((iv.lo, iv.hi) for iv in b.sides) for b in family.boxes]


def _inside(box, point) -> bool:
    return all(lo <= x <= hi for (lo, hi), x in zip(box, point))


def _disjoint(p, q) -> bool:
    return any(a_hi < b_lo or b_hi < a_lo for (a_lo, a_hi), (b_lo, b_hi) in zip(p, q))


def first_unhit(boxes, points) -> int | None:
    """Index of the first box no point lies in, or None."""
    if boxes and len(boxes[0]) == 1:
        xs = sorted(p[0] for p in points)
        for i, ((lo, hi),) in enumerate(boxes):
            k = bisect.bisect_left(xs, lo)
            if k == len(xs) or xs[k] > hi:
                return i
        return None
    for i, box in enumerate(boxes):
        if not any(_inside(box, p) for p in points):
            return i
    return None


def interval_nu(boxes) -> int:
    """nu (= tau) of closed intervals: greedy on right endpoints."""
    count, last = 0, None
    for lo, hi in sorted((b[0] for b in boxes), key=lambda iv: iv[1]):
        if last is None or lo > last:
            count, last = count + 1, hi
    return count


class Gate:
    """Checks each op's answer; remembers nu and tau per family group to cross-check them."""

    def __init__(self):
        self.known: dict[str, dict[str, int]] = {}
        self.checked = 0

    def _piercing(self, op, boxes, points, size, guarantee, nu_used):
        dim = len(boxes[0]) if boxes else None
        if any(len(p) != dim for p in points):
            _fail(op, "point of the wrong dimension")
        if size != len(points):
            _fail(op, f"size {size} but {len(points)} points")
        unhit = first_unhit(boxes, points)
        if unhit is not None:
            _fail(op, f"box {unhit} is not pierced")
        if size > guarantee:
            _fail(op, f"size {size} exceeds guarantee {guarantee}")
        if nu_used > size:
            _fail(op, f"nu {nu_used} exceeds piercing size {size}")
        self._exact(op, "nu", nu_used)
        if size < op.pins.get("tau", 0):
            _fail(op, f"size {size} below tau {op.pins['tau']}")

    def _exact(self, op, name: str, value: int):
        if name in op.pins and op.pins[name] != value:
            _fail(op, f"{name} = {value}, expected {op.pins[name]}")
        if op.group is None:
            return
        seen = self.known.setdefault(op.group, {})
        seen[name] = value
        if "nu" in seen and "tau" in seen and seen["nu"] > seen["tau"]:
            _fail(op, f"nu {seen['nu']} exceeds tau {seen['tau']}")

    @staticmethod
    def _pin_intervals(op, boxes):
        """Interval families have a closed-form nu = tau; pin it on first sight."""
        if boxes and len(boxes[0]) == 1 and "nu" not in op.pins:
            nu = interval_nu(boxes)
            op.pins.update(nu=nu, tau=nu)

    def check(self, op, result):
        """Check one op. `result` is the library's return value or, for cli, (verify, report) text."""
        self.checked += 1
        kind = op.kind
        if kind == "cli":
            return self._cli(op, *result)
        boxes = raw_bounds(op.family)
        self._pin_intervals(op, boxes)
        if kind.startswith("pierce_"):
            self._piercing(op, boxes, [p.coords for p in result.points], result.size,
                           result.guarantee, result.nu_used)
        elif kind == "nu_exact":
            w = result.witness
            if len(set(w)) != len(w) or len(w) != result.nu:
                _fail(op, f"witness {w} does not have nu = {result.nu} distinct members")
            if any(not 0 <= i < len(boxes) for i in w):
                _fail(op, "witness index out of range")
            for a in range(len(w)):
                for b in range(a + 1, len(w)):
                    if not _disjoint(boxes[w[a]], boxes[w[b]]):
                        _fail(op, f"witness boxes {w[a]} and {w[b]} intersect")
            self._exact(op, "nu", result.nu)
        elif kind == "tau_exact":
            pts = [p.coords for p in result.witness]
            if len(pts) != result.tau:
                _fail(op, f"{len(pts)} witness points for tau = {result.tau}")
            unhit = first_unhit(boxes, pts)
            if unhit is not None:
                _fail(op, f"tau witness misses box {unhit}")
            self._exact(op, "tau", result.tau)
        elif kind == "common_point":
            unhit = first_unhit(boxes, [result.coords])
            if unhit is not None:
                _fail(op, f"common point misses box {unhit}")
        else:
            _fail(op, f"unknown op kind {kind}")

    def _cli(self, op, verify_text: str, report_text: str):
        try:
            verdict = json.loads(verify_text)
            report = json.loads(report_text)
        except json.JSONDecodeError as exc:
            _fail(op, f"unparsable output: {exc}")
        boxes = raw_bounds(op.expect())
        self._pin_intervals(op, boxes)
        inst = report["instance"]
        if [tuple(map(tuple, b)) for b in inst["boxes"]] != boxes:
            _fail(op, "report embeds a different instance than gen emits")
        points = [tuple(p) for p in report["points"]]
        self._piercing(op, boxes, points, report["size"], report["guarantee"],
                       report["nu_used"])
        if verdict.get("hits_all") is not True or verdict.get("size") != len(points):
            _fail(op, f"verify disagrees: {verdict}")
