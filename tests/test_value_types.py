"""The value semantics of the package's record types.

Paths, parts, slits and partitions are values: equal fields make equal,
equally hashed objects.  Scenarios, models, reports and frameworks are
entities: each is equal only to itself, however alike two of them are.
Every one of them is immutable and has a repr that names its class.
"""

from __future__ import annotations

import pytest

from chslit import (
    ConsistencyReport,
    ExperimentModel,
    Framework,
    Partition,
    Path,
    Slit,
    SlitPart,
    SlitScenario,
    build_experiment,
    build_framework,
    builtin_scenario,
    check_consistency,
    parse_partition,
)
from conftest import make_scenario

SCENARIO = make_scenario([1, -1, 1])
MODEL = build_experiment(SCENARIO)
SPLIT = parse_partition("1,2|3", 3)

#: Each type, a factory that builds a fresh instance from the same fields,
#: and the names of its fields.
VALUES = [
    (Path, lambda: Path(0, "S1", 1 + 0j, True), ("index", "label", "amplitude", "is_open")),
    (SlitPart, lambda: SlitPart("a", 1 + 0j), ("label", "amplitude")),
    (Slit, lambda: Slit("S1", 1 + 0j, parts=(SlitPart("a", 1 + 0j),)), ("label", "amplitude", "is_open", "parts")),
    (Partition, lambda: Partition((frozenset({2}), frozenset({0, 1}))), ("groups",)),
]
ENTITIES = [
    (SlitScenario, lambda: make_scenario([1, -1, 1]), ("name", "slits", "metadata")),
    (ExperimentModel, lambda: build_experiment(SCENARIO), ("scenario", "amplitudes", "scale", "points", "norm")),
    (
        ConsistencyReport,
        lambda: check_consistency(MODEL, SPLIT),
        ("mode", "consistent", "max_violation", "offending_pair", "tolerance_used"),
    ),
    (Framework, lambda: build_framework(MODEL, SPLIT), ("partition", "mode", "probabilities", "report")),
]


def _ids(cases):
    return [kind.__name__ for kind, _, _ in cases]


@pytest.mark.parametrize("kind, make, fields", VALUES + ENTITIES, ids=_ids(VALUES + ENTITIES))
def test_fields_cannot_be_assigned_and_the_repr_names_the_class(kind, make, fields):
    value = make()
    assert type(value) is kind
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    assert repr(value).startswith(f"{kind.__name__}(")


@pytest.mark.parametrize("kind, make, fields", VALUES, ids=_ids(VALUES))
def test_values_compare_and_hash_by_their_fields(kind, make, fields):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1


def test_partitions_compare_and_hash_in_canonical_order():
    listed = Partition((frozenset({2}), frozenset({0, 1})))
    canonical = Partition((frozenset({0, 1}), frozenset({2})))
    assert listed == canonical and hash(listed) == hash(canonical)
    assert listed != Partition((frozenset({0}), frozenset({1, 2})))


def test_values_with_different_fields_differ():
    assert Path(0, "S1", 1 + 0j, True) != Path(0, "S1", 1 + 0j, False)
    assert SlitPart("a", 1 + 0j) != SlitPart("b", 1 + 0j)
    assert Slit("S1", 1 + 0j) != Slit("S1", 1 + 0j, is_open=False)


def test_a_model_holds_each_amplitude_exactly():
    # Each amplitude as (p + iq) 2**E, E the least exponent of a nonzero part: 1 is 2**52 * 2**-52.
    model = build_experiment(builtin_scenario("three-slit-contradiction"))
    assert (model.points, model.norm) == (((2**52, 0), (-(2**52), 0), (2**52, 0)), 3 * 2**104)


@pytest.mark.parametrize("kind, make, fields", ENTITIES, ids=_ids(ENTITIES))
def test_entities_compare_and_hash_by_identity(kind, make, fields):
    a, b = make(), make()
    assert all(getattr(a, name) == getattr(b, name) for name in fields if name != "report")
    assert a == a and not a != a
    assert a != b and not a == b
    assert len({a, b, a}) == 2 and hash(a) == object.__hash__(a)
