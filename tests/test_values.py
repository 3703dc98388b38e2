"""The value contract: immutable slotted value classes and the tuple records.

The five value classes compare by class and field tuple, hash as that tuple
(so set and dict orders match the tuple's), refuse assignment and deletion,
and survive pickling and copying. The records are named tuples whose
``_asdict`` keeps the field order the CLI's JSON payloads are built from.
"""

from __future__ import annotations

import copy
import itertools
import pickle

import numpy as np
import pytest

from wreathwalls import (
    CndReport,
    GrowthRow,
    LampConfig,
    ReducedWord,
    SublevelReport,
    TreeHalfSpace,
    WreathElement,
    WreathHalfSpace,
    WreathWallSpace,
    cnd_check,
    growth_table,
    parse_element,
)

from support import z2


def config(*pairs):
    return LampConfig.from_pairs([(ReducedWord(p, 2), v) for p, v in pairs], z2(), 2)


# Each builds a fresh instance with the same fields on every call.
VALUES = {
    ReducedWord: (lambda: ReducedWord("ab", 2), ("letters", "rank")),
    LampConfig: (lambda: config(("a", 1), ("bA", 1)), ("entries", "lamps", "rank")),
    WreathElement: (lambda: parse_element("{a:1}|ab", z2(), 2), ("lamps", "position")),
    TreeHalfSpace: (lambda: TreeHalfSpace(ReducedWord("b", 2), True), ("deep", "cone")),
    WreathHalfSpace: (
        lambda: WreathHalfSpace(TreeHalfSpace(ReducedWord("b", 2), False), config(("ba", 1))),
        ("base", "decoration"),
    ),
}
ids = [cls.__name__ for cls in VALUES]


@pytest.mark.parametrize("cls", VALUES, ids=ids)
def test_fields_reject_assignment_and_deletion(cls):
    make, fields = VALUES[cls]
    value = make()
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make()


@pytest.mark.parametrize("cls", VALUES, ids=ids)
def test_equal_fields_give_equal_objects_and_the_field_tuple_hash(cls):
    make, fields = VALUES[cls]
    first, second = make(), make()
    assert first is not second and type(first) is cls
    assert first == second and not first != second
    as_tuple = tuple(getattr(first, name) for name in fields)
    assert hash(first) == hash(second) == hash(as_tuple)
    assert first != as_tuple


def test_instances_of_different_classes_never_compare_equal():
    values = [make() for make, _ in VALUES.values()]
    for a, b in itertools.permutations(values, 2):
        assert a != b and not a == b
        assert a.__eq__(b) is NotImplemented


@pytest.mark.parametrize("cls", VALUES, ids=ids)
def test_pickle_and_copy_round_trip_through_validation(cls):
    value = VALUES[cls][0]()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and hash(twin) == hash(value)


def test_half_space_reprs_list_their_fields():
    tree, half = TreeHalfSpace, WreathHalfSpace
    assert repr(VALUES[tree][0]()) == "TreeHalfSpace(deep=ReducedWord('b', rank=2), cone=True)"
    assert repr(VALUES[half][0]()) == (
        "WreathHalfSpace(base=TreeHalfSpace(deep=ReducedWord('b', rank=2), cone=False), "
        "decoration=LampConfig('{ba:1}', rank=2, lamps=LampGroup(order=2)))"
    )


SUBLEVEL_FIELDS = ["rank", "lamp_order", "max_wall", "radius", "box_size", "sublevel"]
RECORDS = {
    CndReport: (
        lambda: cnd_check(np.array([[0, 2], [2, 0]])),
        ["passed", "min_eigenvalue", "dimension", "tolerance"],
    ),
    GrowthRow: (
        lambda: growth_table(WreathWallSpace(z2(), 2), 2)[1],
        ["radius", "sphere_size", "min_wall", "max_wall"],
    ),
    SublevelReport: (
        lambda: WreathWallSpace(z2(), 2).sublevel_report(2, radius=2),
        [*SUBLEVEL_FIELDS, "base_ball_size", "cardinality_bound", "contained", "violations"],
    ),
}


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
def test_records_reject_assignment_and_keep_their_field_order(cls):
    make, fields = RECORDS[cls]
    record = make()
    assert type(record) is cls
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert list(record._asdict()) == fields
    assert record._replace() == record == make()


def test_sublevel_count_stays_a_property_outside_the_fields():
    report = RECORDS[SublevelReport][0]()
    assert report.sublevel_count == len(report.sublevel) == 26
    assert "sublevel_count" not in report._asdict()
