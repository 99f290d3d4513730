"""Spans recorded from outside the library, and the per-layer metrics built from them.

`Tracer.installed` replaces the public functions that `boxpierce.piercing`
calls (looked up in that module's namespace) with wrappers recording a
span each: [name, start, end, parent span index, op id, boxes]. The op
itself is a span opened by the harness. BoxFamily validations are
counted, not spanned. Nothing under src/ is modified; the originals are
put back when the context exits.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

#: Names wrapped in boxpierce.piercing, by layer.
PIERCING_CALLEES = {
    "nu_exact": "oracles",
    "common_point": "oracles",
    "split_four": "geometry",
    "split_three": "geometry",
    "project_onto_hyperplane": "geometry",
    "lift_points": "geometry",
    "bound_prop3": "bounds",
    "bound_prop1": "bounds",
    "bound_lemma1": "bounds",
    "h": "bounds",
}

#: Trace-node ops that split or sweep; each may need nu probes.
SPLIT_NODES = ("split-four", "split-three", "two-line-step")

NAME, START, END, PARENT, OP, BOXES = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.families_built = 0

    @contextlib.contextmanager
    def span(self, name: str, boxes: int | None = None):
        parent = self.stack[-1] if self.stack else None
        rec = [name, perf_counter(), None, parent, self.op, boxes]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self.stack.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            boxes = len(args[0]) if name == "nu_exact" else None
            with self.span(name, boxes):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self, bp):
        piercing = bp.piercing
        family_cls = bp.geometry.BoxFamily
        saved = {name: getattr(piercing, name) for name in PIERCING_CALLEES}
        post_init = family_cls.__post_init__

        def counted_post_init(fam):
            if self.op is not None:
                self.families_built += 1
            post_init(fam)

        try:
            for name, fn in saved.items():
                setattr(piercing, name, self._wrap(name, fn))
            family_cls.__post_init__ = counted_post_init
            yield self
        finally:
            for name, fn in saved.items():
                setattr(piercing, name, fn)
            family_cls.__post_init__ = post_init


def _dur(rec) -> float:
    return rec[END] - rec[START]


class LayerStats:
    """Accumulates per-layer totals over the ops that completed under tracing."""

    def __init__(self):
        self.ops = 0
        self.total = {}
        self.per_op: dict[int, dict[str, float]] = {}  # op id -> its counters

    def add(self, key: str, value: float):
        self.total[key] = self.total.get(key, 0.0) + value

    def add_op(self, op_id: int, kind: str, spans: list[list], root_index: int, result,
               families_built: int):
        """Fold one completed op: `spans[0]` is the op span (index `root_index`), the rest its descendants."""
        before = counters(self)
        self._fold(kind, spans, root_index, result, families_built)
        after = counters(self)
        self.per_op[op_id] = {k: after[k] - before[k] for k in after}

    def _fold(self, kind, spans, root_index, result, families_built):
        self.ops += 1
        self.add("points", points_of(kind, result) or 0)
        self.add("geometry.families_built", families_built)
        root = spans[0]
        child_time = 0.0
        first_nu = True
        for rec in spans[1:]:
            name, d = rec[NAME], _dur(rec)
            if rec[PARENT] == root_index:
                child_time += d
            if name == "nu_exact":
                self.add("oracles.nu_calls", 1)
                self.add("oracles.nu_boxes", rec[BOXES])
                if first_nu:
                    self.add("oracles.nu_root_s", d)
                    first_nu = False
                else:
                    self.add("oracles.nu_probe_calls", 1)
                    self.add("oracles.nu_probe_s", d)
            elif name == "common_point":
                self.add("oracles.common_point_calls", 1)
                self.add("oracles.common_point_s", d)
            elif name in ("split_four", "split_three"):
                self.add("geometry.split_calls", 1)
                self.add("geometry.split_s", d)
            elif name in ("project_onto_hyperplane", "lift_points"):
                self.add("geometry.project_lift_s", d)
            elif PIERCING_CALLEES.get(name) == "bounds":
                self.add("bounds.calls", 1)
                self.add("bounds.s", d)
        if kind.startswith("pierce_"):
            self.add("piercing.self_s", _dur(root) - child_time)
            self.add("piercing.ops", 1)
            self.add("piercing.trace_nodes", len(result.trace))
            self.add("piercing.split_nodes",
                     sum(1 for t in result.trace if t.op in SPLIT_NODES))
            if result.guarantee > 0:
                self.add("piercing.points_per_guarantee", result.size / result.guarantee)
                self.add("piercing.guaranteed_ops", 1)
        elif kind == "nu_exact":
            self.add("oracles.nu_calls", 1)
            self.add("oracles.nu_boxes", root[BOXES])
            self.add("oracles.nu_root_s", _dur(root))
        elif kind == "tau_exact":
            self.add("oracles.tau_calls", 1)
            self.add("oracles.tau_s", _dur(root))
        elif kind == "common_point":
            self.add("oracles.common_point_calls", 1)
            self.add("oracles.common_point_s", _dur(root))

    def metrics(self) -> dict[str, float]:
        t = self.total
        per_op = max(self.ops, 1)

        def ratio(num, den):
            return t.get(num, 0.0) / t[den] if t.get(den) else 0.0

        out = {}
        for key in ("oracles.nu_calls", "oracles.nu_root_s", "oracles.nu_probe_calls",
                    "oracles.nu_probe_s", "oracles.tau_calls", "oracles.tau_s",
                    "oracles.common_point_calls", "oracles.common_point_s",
                    "geometry.split_calls", "geometry.split_s", "geometry.project_lift_s",
                    "geometry.families_built", "bounds.calls", "bounds.s"):
            out[key] = t.get(key, 0.0) / per_op
        out["oracles.nu_boxes_mean"] = ratio("oracles.nu_boxes", "oracles.nu_calls")
        out["piercing.self_s"] = ratio("piercing.self_s", "piercing.ops")
        out["piercing.trace_nodes"] = ratio("piercing.trace_nodes", "piercing.ops")
        out["piercing.probes_per_split"] = ratio("oracles.nu_probe_calls", "piercing.split_nodes")
        out["piercing.points_per_guarantee"] = ratio("piercing.points_per_guarantee",
                                                     "piercing.guaranteed_ops")
        return out


def points_of(kind: str, result) -> int | None:
    """Size of the piercing set an op returned, if it returns one."""
    if kind.startswith("pierce_"):
        return result.size
    if kind == "tau_exact":
        return len(result.witness)
    return None


#: Counts that do not depend on the machine; two runs on one seed repeat them exactly.
COUNTERS = ("oracles.nu_calls", "oracles.nu_probe_calls", "oracles.tau_calls",
            "geometry.families_built", "bounds.calls", "piercing.trace_nodes", "points")


def counters(stats: LayerStats) -> dict[str, float]:
    return {k: stats.total.get(k, 0.0) for k in COUNTERS}
