"""Data model: geometry values are immutable slotted classes, results are NamedTuples.

Needs no pytest, so the same checks run on interpreters without it:
`PYTHONPATH=src python tests/test_values.py`.
"""

import copy
import pickle

from boxpierce import (
    Box,
    BoxFamily,
    Instance,
    Interval,
    NuResult,
    Point,
    RandomSpec,
    TwoLines,
    build_table,
    gen_gadget,
    nu_exact,
    pierce_two_lines,
    split_four,
    tau_exact,
    verify_piercing,
)
from boxpierce.instances import report_to_obj

_UNIT_SQUARE = Box.from_bounds([(0, 1), (0, 1)])

#: One value per class, as its fields by name.
VALUES = [
    (Interval, {"lo": -3, "hi": 7}),
    (Point, {"coords": (1, -2, 3)}),
    (Box, {"sides": (Interval(0, 1), Interval(2, 3))}),
    (TwoLines, {"axis": 1, "c1": 0, "c2": 5}),
    (BoxFamily, {"dim": 2, "boxes": (_UNIT_SQUARE,), "lines": TwoLines(1, 0, 5)}),
    (RandomSpec, {"n_boxes": 5, "dim": 3, "coord_range": (0, 9), "seed": 3, "two_line": False,
                  "lines": None}),
]


def _refused(action) -> bool:
    try:
        action()
    except AttributeError:
        return True
    return False


def test_equal_fields_give_equal_values_and_hashes():
    for cls, fields in VALUES:
        a, b = cls(**fields), cls(*fields.values())
        assert a is not b and a == b and not a != b, cls
        assert hash(a) == hash(b), cls


def test_values_equal_only_their_own_class():
    for cls, fields in VALUES:
        other = type("Other", (cls,), {})(**fields)
        value = cls(**fields)
        assert value != other and other != value, cls
        assert value != tuple(fields.values()), cls


def test_fields_cannot_be_assigned_or_deleted():
    for cls, fields in VALUES:
        value = cls(**fields)
        for name, field in fields.items():
            assert _refused(lambda: setattr(value, name, field)), (cls, name)
            assert _refused(lambda: delattr(value, name)), (cls, name)
            assert getattr(value, name) == field
        assert _refused(lambda: setattr(value, "extra", 1)), cls


def test_pickle_and_copy_round_trip():
    for cls, fields in VALUES:
        value = cls(**fields)
        copies = [pickle.loads(pickle.dumps(value, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(value), copy.deepcopy(value)]
        for c in copies:
            assert type(c) is cls and c == value and hash(c) == hash(value), cls


class _Spec(RandomSpec):  # declares no field of its own
    __slots__ = ()


def test_subclass_without_slots_of_its_own_keeps_its_base_fields():
    spec = _Spec(5, 3, (0, 9), 3)
    assert (spec.n_boxes, spec.dim, spec.coord_range, spec.seed) == (5, 3, (0, 9), 3)
    assert spec == _Spec(5, 3, (0, 9), 3) and hash(spec) == hash(_Spec(5, 3, (0, 9), 3))
    assert spec != _Spec(6, 3, (0, 9), 3) and spec != RandomSpec(5, 3, (0, 9), 3)
    assert repr(spec) == ("_Spec(n_boxes=5, dim=3, coord_range=(0, 9), seed=3, "
                          "two_line=False, lines=None)")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copied = pickle.loads(pickle.dumps(spec, protocol))
        assert type(copied) is _Spec and copied == spec


def test_records_are_tuples_that_unpack():
    nu, witness = nu_exact(gen_gadget())
    assert (nu, witness) == (2, (0, 2))
    assert nu_exact(gen_gadget()) == NuResult(2, (0, 2)) == (2, (0, 2))
    family, meta = Instance(gen_gadget())
    assert family == gen_gadget() and meta is None


def test_reprs_are_unchanged():
    fam = gen_gadget()
    report = pierce_two_lines(fam)
    one_box = BoxFamily.of([Box.from_bounds([(0, 1)])])
    assert [repr(cls(**fields)) for cls, fields in VALUES] == [
        "Interval(lo=-3, hi=7)",
        "Point(coords=(1, -2, 3))",
        "Box(sides=(Interval(lo=0, hi=1), Interval(lo=2, hi=3)))",
        "TwoLines(axis=1, c1=0, c2=5)",
        "BoxFamily(dim=2, boxes=(Box(sides=(Interval(lo=0, hi=1), Interval(lo=0, hi=1))),), "
        "lines=TwoLines(axis=1, c1=0, c2=5))",
        "RandomSpec(n_boxes=5, dim=3, coord_range=(0, 9), seed=3, two_line=False, lines=None)",
    ]
    assert repr(nu_exact(fam)) == "NuResult(nu=2, witness=(0, 2))"
    assert repr(tau_exact(fam)) == ("TauResult(tau=3, witness=(Point(coords=(0, 0)), "
                                    "Point(coords=(0, 2)), Point(coords=(6, 2))))")
    assert repr(report) == ("PierceReport(points=(Point(coords=(0, 2)), Point(coords=(6, 0)), "
                            "Point(coords=(6, 2))), guarantee=3.0, nu_used=2)")
    assert repr(report.trace[0]) == ("TraceNode(node=0, parent=None, op='two-line-step', dim=2, "
                                     "bound=2, depth=0, axis=0, lo=6, hi=None, sizes=(2, 3, 0))")
    assert repr(split_four(one_box, 0, 0, 1)) == (
        "FourWaySplit(minus=BoxFamily(dim=1, boxes=(), lines=None), "
        "plusminus=BoxFamily(dim=1, boxes=(), lines=None), "
        "plus=BoxFamily(dim=1, boxes=(), lines=None), "
        "zero=BoxFamily(dim=1, boxes=(Box(sides=(Interval(lo=0, hi=1),)),), lines=None), a=0, b=1)")
    assert repr(Instance(one_box, {"a": 1})) == (
        "Instance(family=BoxFamily(dim=1, boxes=(Box(sides=(Interval(lo=0, hi=1),)),), "
        "lines=None), meta={'a': 1})")
    assert repr(verify_piercing(fam, report.points, 3.0)) == (
        "VerifyReport(hits_all=True, size=3, guarantee=3.0, violations=())")
    assert repr(build_table("prop3", 2)) == (
        "BoundTable(rule=<BoundRule.PROP3: 'prop3'>, max_n=2, max_d=2, "
        "values={(0, 2): 0, (1, 2): 1, (2, 2): 3})")


def test_report_trace_keys_keep_their_order():
    fam = gen_gadget()
    obj = report_to_obj(pierce_two_lines(fam), "twoline", None, fam)
    assert obj["trace"] and all(list(node) == [
        "node", "parent", "op", "dim", "bound", "depth", "axis", "lo", "hi", "sizes",
    ] for node in obj["trace"])


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("test_values: all passed")
