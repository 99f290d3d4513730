"""Instance files: canonical JSON round trips, validation, verification."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxpierce import (
    Box,
    BoxFamily,
    Instance,
    InstanceFormatError,
    Point,
    RandomSpec,
    gen_extremal_two_line,
    gen_gadget,
    gen_random,
    instance_from_json,
    instance_to_json,
    load_instance,
    pierce_two_lines,
    read_instance,
    verify_piercing,
    write_instance,
)
from boxpierce.instances import dumps_canonical, parse_points_document, report_to_json

from _helpers import families, unsound_indices


def test_family_round_trip_equality():
    g = gen_gadget()
    assert instance_from_json(instance_to_json(g)).family == g


def test_file_round_trip_byte_exact(tmp_path):
    path = tmp_path / "inst.json"
    inst = Instance(gen_extremal_two_line(3), {"generator": "test", "seed": 7})
    write_instance(inst, str(path))
    first = path.read_bytes()
    write_instance(load_instance(str(path)), str(path))
    assert path.read_bytes() == first


def test_read_instance_returns_family(tmp_path):
    path = tmp_path / "inst.json"
    write_instance(gen_gadget(), str(path))
    assert read_instance(str(path)) == gen_gadget()


def test_missing_lines_gives_no_certificate():
    inst = instance_from_json('{"dim": 1, "boxes": [[[0, 2]]]}')
    assert inst.family.lines is None and inst.meta is None


def test_reversed_interval_names_box():
    with pytest.raises(InstanceFormatError, match=r"boxes\[1\]\[0\]"):
        instance_from_json('{"dim": 1, "boxes": [[[0, 2]], [[5, 3]]]}')


def test_float_coordinate_rejected():
    with pytest.raises(InstanceFormatError, match="integer"):
        instance_from_json('{"dim": 1, "boxes": [[[0, 1.5]]]}')


def test_nan_rejected():
    with pytest.raises(InstanceFormatError, match="non-finite"):
        instance_from_json('{"dim": 1, "boxes": [[[0, NaN]]]}')


def test_malformed_json_reports_location():
    with pytest.raises(InstanceFormatError, match="line 1"):
        instance_from_json('{"dim": 1, ')


def test_two_line_violation_in_file_reported():
    text = ('{"dim": 2, "boxes": [[[0, 1], [5, 6]]], '
            '"lines": {"axis": 1, "c1": 0, "c2": 2}}')
    with pytest.raises(InstanceFormatError, match="box 0"):
        instance_from_json(text)


def _instance(doc):
    return instance_from_json(json.dumps(doc))


def _points(doc):
    return parse_points_document(json.dumps(doc))


@pytest.mark.parametrize("parse, doc, where", [
    (_instance, {"dim": 1, "boxes": [[[0, 2**63]]]}, "boxes[0][0]"),
    (_instance, {"dim": 1, "boxes": [[[0, 1.5]]]}, "boxes[0][0]"),
    (_instance, {"dim": 2, "boxes": [[[0, 1], [0, 1]], [[0, 1], [3, 2]]]}, "boxes[1][1]"),
    (_instance, {"dim": 2, "boxes": [], "lines": {"axis": -1, "c1": 0, "c2": 2}}, "lines"),
    (_instance, {"dim": 2, "boxes": [], "lines": {"axis": 1, "c1": 0, "c2": 10**20}}, "lines"),
    (_instance, {"dim": 2, "boxes": [[[0, 1], [0, 1]]],
                 "lines": {"axis": 5, "c1": 0, "c2": 2}}, "instance"),
    (_points, {"points": [[2**63]]}, "points[0]"),
    (_points, {"points": [[0], [0.5]]}, "points[1]"),
    (_points, {"points": [], "guarantee": True}, "guarantee"),
    (_points, {"points": [], "guarantee": 10**400}, "guarantee"),
], ids=["coord-2^63", "float-coord", "reversed-second-box", "line-axis-neg", "line-c2-huge",
        "line-axis-5-dim-2", "point-2^63", "float-second-point", "guarantee-bool",
        "guarantee-10^400"])
def test_invalid_field_names_its_location(parse, doc, where):
    with pytest.raises(InstanceFormatError) as info:
        parse(doc)
    assert str(info.value).startswith(f"{where}: ")


# a 10,000-row document whose row 5,000 is malformed
_ROWS = [[[i, i + 3], [2 * i, 2 * i + 1]] for i in range(10_000)]


@pytest.mark.parametrize("bad, message", [
    ([[0, 1], [True, 5]], "boxes[5000][1]: interval lo: coordinate must be an integer, got True"),
    ([[0, 1], [0, 1.5]], "boxes[5000][1]: interval hi: coordinate must be an integer, got 1.5"),
    ([[0, 1], [4, 3]], "boxes[5000][1]: interval has lo > hi: [4, 3]"),
    ([[0, 1], [0, 2**63]],
     "boxes[5000][1]: interval hi: coordinate 9223372036854775808 outside 64-bit range"),
    ([[0, 1], [-2**63 - 1, 0]],
     "boxes[5000][1]: interval lo: coordinate -9223372036854775809 outside 64-bit range"),
    ([[0, 1], [0, 1, 2]], "boxes[5000][1]: expected an [lo, hi] pair"),
    ([[0, 1], "ab"], "boxes[5000][1]: expected an [lo, hi] pair"),
    ({"lo": 0}, "boxes[5000]: expected 2 [lo, hi] pairs"),
    ([[0, 1]], "boxes[5000]: expected 2 [lo, hi] pairs"),
    # the axis named is the first bad pair's, not that of an equal pair before or after it
    ([[4, 3], [4, 3]], "boxes[5000][0]: interval has lo > hi: [4, 3]"),
    (["ab", [0, 1]], "boxes[5000][0]: expected an [lo, hi] pair"),
    ([[1, 5], [True, 5]], "boxes[5000][1]: interval lo: coordinate must be an integer, got True"),
], ids=["bool", "float", "reversed", "2^63", "-2^63-1", "pair-of-3", "pair-not-a-list",
        "row-not-a-list", "row-of-dim-1", "both-reversed", "first-not-a-list",
        "bool-equal-to-the-pair-before"])
def test_malformed_row_deep_in_a_document_is_located(bad, message):
    with pytest.raises(InstanceFormatError) as info:
        _instance({"dim": 2, "boxes": _ROWS[:5000] + [bad] + _ROWS[5001:]})
    assert str(info.value) == message


_slot = st.one_of(st.integers(-2**64, 2**64), st.floats(), st.booleans(), st.none(),
                  st.text(max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_slot, _slot, _slot, _slot), max_size=3),
       st.none() | st.fixed_dictionaries({"axis": _slot, "c1": _slot, "c2": _slot}))
def test_reader_round_trips_or_raises_format_error(boxes, lines):
    doc = {"dim": 2, "boxes": [[[a, b], [c, d]] for a, b, c, d in boxes], "lines": lines}
    try:
        inst = _instance(doc)
    except InstanceFormatError:
        return
    assert instance_from_json(instance_to_json(inst)).family == inst.family


def test_canonical_output_is_key_sorted():
    g = gen_gadget()
    text = instance_to_json(Instance(g, {"generator": "x"}))
    keys = [line.split('"')[1] for line in text.splitlines()
            if line.startswith('  "')]
    assert keys == sorted(keys)


_scalars = st.one_of(st.integers(-2**70, 2**70), st.floats(), st.booleans(), st.none(),
                     st.text(alphabet='0123456789-[]{},:%s"\\\n é', max_size=6))
_shapes = st.recursive(st.just(0), lambda s: st.lists(s, max_size=3), max_leaves=6)


def _filled(shape):
    """Integer arrays of `shape` (0 is a leaf, a list nests)."""
    if shape == 0:
        return st.integers(-2**70, 2**70)
    return st.tuples(*map(_filled, shape)).map(list)


@st.composite
def _int_rows(draw):
    """A list (or tuple) of integer arrays of one shape, sometimes with one odd item."""
    rows = draw(st.lists(_filled(draw(_shapes)), min_size=1, max_size=5))
    if draw(st.booleans()):
        odd = draw(st.one_of(_scalars, _shapes.flatmap(_filled)))
        rows[draw(st.integers(0, len(rows) - 1))] = odd
    return tuple(rows) if draw(st.booleans()) else rows


_str_keys = st.text(alphabet='0123456789ab[]"%s', max_size=4)
_documents = st.recursive(
    _scalars | _int_rows(),
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_str_keys, inner, max_size=4)
                   | st.dictionaries(_str_keys | st.integers(-2, 2) | st.booleans(), inner,
                                     max_size=3)),
    max_leaves=16)


@settings(max_examples=300, deadline=None)
@given(_documents)
@example([[], [5]])  # with the integers deleted, [] and [5] would read alike
@example([[5], []])
@example({"boxes": [[[0, 1], [2, True]]], "points": [[1], [1.0]], "w": [2**64, -2**64]})
@example(["%s", "%s"])
@example([[[]], [[]]])
@example(((1, 2), (3, 4)))
def test_dumps_canonical_is_json_dumps_byte_for_byte(obj):
    try:
        expected = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            dumps_canonical(obj)
        return
    assert dumps_canonical(obj) == expected


# --- reports and verification --------------------------------------------------

def test_report_embeds_instance_for_verification():
    g = gen_gadget()
    report = pierce_two_lines(g)
    text = report_to_json(report, "twoline", None, g)
    points, embedded, guarantee = parse_points_document(text)
    assert embedded is not None and embedded.family == g
    assert guarantee == report.guarantee
    assert len(points) == report.size


def test_verify_accepts_pierce_output():
    g = gen_extremal_two_line(4)
    report = pierce_two_lines(g)
    vr = verify_piercing(g, report.points, guarantee=report.guarantee)
    assert vr.hits_all and vr.violations == ()
    assert vr.size == report.size <= vr.guarantee


def test_verify_lists_unhit_boxes():
    g = gen_gadget()
    report = pierce_two_lines(g)
    vr = verify_piercing(g, report.points[:-1])
    assert not vr.hits_all
    assert vr.violations  # at least one box lost its only point
    for i in vr.violations:
        assert not any(g.boxes[i].contains(p) for p in report.points[:-1])


def test_parse_bare_points_document():
    points, inst, guarantee = parse_points_document('{"points": [[1, 2], [3, 4]]}')
    assert inst is None and guarantee is None
    assert [p.coords for p in points] == [(1, 2), (3, 4)]


@pytest.mark.parametrize("points", [[(0, 0), (5,)], [(5,), (0, 0)]], ids=["hit-first", "bad-first"])
def test_verify_checks_every_point_dimension_in_any_order(points):
    unit = BoxFamily.of([Box.from_bounds([(0, 1), (0, 1)])])
    with pytest.raises(ValueError, match=r"family is 2-d, point \d is 1-d"):
        verify_piercing(unit, [Point(c) for c in points])


def _on_faces_and_around(box: Box):
    """Corners, face points and near misses of one box."""
    return st.tuples(*[st.sampled_from((iv.lo - 1, iv.lo, iv.hi, iv.hi + 1)) for iv in box.sides])


@settings(max_examples=300, deadline=None)
@given(families(12), st.data())
def test_verify_matches_brute_force_containment(f, data):
    coord = st.integers(-10, 16)
    anywhere = st.tuples(*[coord] * f.dim)
    near = st.sampled_from(f.boxes).flatmap(_on_faces_and_around) if f.boxes else anywhere
    coords = data.draw(st.lists(near | anywhere, max_size=8))
    if coords:  # duplicates
        coords += data.draw(st.lists(st.sampled_from(coords), max_size=3))
    points = [Point(c) for c in data.draw(st.permutations(coords))]
    vr = verify_piercing(f, points)
    expected = tuple(unsound_indices(f, points))
    assert vr.violations == expected
    assert vr.hits_all == (not expected)
    assert vr.size == len(points)


@st.composite
def _pierced_or_nearly(draw):
    """A 1-3-d or two-line family and points that pierce it, some then dropped or shifted."""
    if draw(st.booleans()):
        f = draw(families(12))
    else:
        f = gen_random(RandomSpec(draw(st.integers(0, 12)), 2, (-6, 6),
                                  seed=draw(st.integers(0, 2**16)), two_line=True))
    n = len(f.boxes)
    picked = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n))
    coords = [[iv.lo for iv in f.boxes[i].sides] for i in picked]  # low corners
    for c in coords:
        if draw(st.booleans()):
            c[draw(st.integers(0, f.dim - 1))] += draw(st.sampled_from((-1, 1)))
    return f, coords


@settings(max_examples=300, deadline=None)
@given(_pierced_or_nearly(), st.none() | st.integers(0, 20))
def test_verify_on_rows_matches_verify_piercing_on_the_family(case, guarantee):
    from boxpierce.instances import _parse_report, _verify_rows, instance_to_obj
    f, coords = case
    text = json.dumps({"points": coords, "guarantee": guarantee,
                       "instance": instance_to_obj(Instance(f))})
    points, doc, claimed = _parse_report(text, None)
    on_rows = _verify_rows(doc.dim, doc.boxes, points, claimed)
    points, embedded, claimed = parse_points_document(text)
    assert embedded.family == f
    assert on_rows == verify_piercing(f, points, guarantee=claimed)
    assert on_rows.violations == tuple(unsound_indices(f, points))
