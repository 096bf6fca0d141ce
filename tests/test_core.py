"""Partition parsing, group amplitudes, counting rates and the package's
public names."""

from __future__ import annotations

import copy
import math
import os
import random
import subprocess
import sys
import types
from pathlib import Path as FilePath

import pytest
from hypothesis import given, strategies as st

import chslit
from chslit import (
    BadIndex,
    ConsistencyReport,
    ExperimentModel,
    Framework,
    Partition,
    PartSumMismatch,
    Path,
    Slit,
    SlitPart,
    SlitScenario,
    counting_rate,
    format_partition,
    format_scenario_partition,
    group_amplitude,
    parse_partition,
    partition_on_paths,
)
from conftest import make_scenario

THREE_SLIT = make_scenario([1, -1, 1])


# -- partitions ----------------------------------------------------------------


def test_parse_two_groups():
    assert parse_partition("1,2|3", 3) == Partition((frozenset({0, 1}), frozenset({2})))


def test_parse_finest():
    assert parse_partition("1|2|3", 3) == Partition((frozenset({0}), frozenset({1}), frozenset({2})))


def test_parse_overlapping_groups():
    with pytest.raises(BadIndex):
        parse_partition("1,2|2", 3)


def test_parse_not_exhaustive():
    with pytest.raises(BadIndex):
        parse_partition("1,2", 3)


@pytest.mark.parametrize("text", ["1,2|4", "0|1,2,3", "1,x|2", "1,|2", ""])
def test_parse_bad_indices(text):
    with pytest.raises(BadIndex):
        parse_partition(text, 3)


def test_parse_rejects_a_repeated_index_by_name():
    with pytest.raises(BadIndex, match="path index 3 repeated in '3,1,3'"):
        parse_partition("3,1,3|2", 3)


def test_parse_needs_at_least_one_path():
    with pytest.raises(ValueError, match="got 0"):
        parse_partition("1", 0)


def test_parse_tolerates_whitespace():
    assert parse_partition(" 3 | 1 , 2 ", 3) == parse_partition("1,2|3", 3)


def test_partition_groups_are_canonically_ordered():
    p = Partition((frozenset({2}), frozenset({0, 1})))
    assert p.groups == (frozenset({0, 1}), frozenset({2}))
    assert format_partition(p) == "1,2|3"


def test_partition_rejects_empty_group():
    with pytest.raises(BadIndex, match="non-empty"):
        Partition((frozenset(), frozenset({0})))


@pytest.mark.parametrize(
    "groups", [[[0], [1, "a"]], [5], [[0.5]], ["01"]], ids=["str-member", "int-group", "float-member", "str-group"]
)
def test_partition_refuses_a_group_that_is_not_a_collection_of_integers(groups):
    with pytest.raises(BadIndex, match="partition groups must be collections of integers: "):
        Partition(groups)


@st.composite
def partitions(draw):
    code = draw(st.lists(st.integers(0, 6), min_size=1, max_size=9))
    groups: dict[int, set[int]] = {}
    for index, g in enumerate(code):
        groups.setdefault(g, set()).add(index)
    return Partition(tuple(frozenset(g) for g in groups.values()))


@given(partitions())
def test_parse_format_round_trip(partition):
    n = max(partition.universe) + 1
    # Holes in the universe would make the text non-canonical; fill them in.
    if partition.universe != frozenset(range(n)):
        missing = frozenset(range(n)) - partition.universe
        partition = Partition(partition.groups + (missing,))
    assert parse_partition(format_partition(partition), n) == partition


def test_refines():
    coarse = parse_partition("1,2|3", 3)
    fine = parse_partition("1|2|3", 3)
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert coarse.refines(coarse)
    assert not parse_partition("1,3|2", 3).refines(coarse)


# -- scenario flattening ---------------------------------------------------------


def test_flattening_assigns_dense_indices_and_labels():
    scenario = SlitScenario(
        name="t",
        slits=(
            Slit("S1", 1.0, is_open=False),
            Slit("S2", 0j, parts=(SlitPart("upper", 1.0), SlitPart("lower", -1.0))),
            Slit("S3", 1.0),
        ),
    )
    assert [p.label for p in scenario.paths] == ["S1", "S2.upper", "S2.lower", "S3"]
    assert [p.index for p in scenario.paths] == [0, 1, 2, 3]
    assert scenario.open_indices == (1, 2, 3)
    # Closing a slit must not renumber anything.
    reopened = SlitScenario(name="t", slits=(Slit("S1", 1.0),) + scenario.slits[1:])
    assert [p.label for p in reopened.paths] == [p.label for p in scenario.paths]


def test_part_sum_mismatch_is_rejected():
    with pytest.raises(PartSumMismatch):
        Slit("S1", 1.0, parts=(SlitPart("a", 1.0), SlitPart("b", 1.0)))


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_part_sum_tolerance_is_relative_to_the_amplitude_scale(scale):
    # The rounding error of 0.1 + 0.2 passes at every scale; parts (1, 1)
    # never sum to 0, however small.
    slit = Slit("S1", 0.3 * scale, parts=(SlitPart("a", 0.1 * scale), SlitPart("b", 0.2 * scale)))
    assert [p.amplitude for p in slit.parts] == [0.1 * scale, 0.2 * scale]
    with pytest.raises(PartSumMismatch):
        Slit("S1", 0.0, parts=(SlitPart("a", scale), SlitPart("b", scale)))
    with pytest.raises(PartSumMismatch):
        Slit("S1", 1.5e308 + 1.5e308j, parts=(SlitPart("a", 1.5e308 + 1.5e308j), SlitPart("b", 1.5e308j)))


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        SlitScenario(name="t", slits=(Slit("S1", 1.0), Slit("S1", 2.0)))
    with pytest.raises(ValueError):
        Slit("S1", 0j, parts=(SlitPart("a", 1.0), SlitPart("a", -1.0)))


def test_non_finite_amplitudes_rejected():
    with pytest.raises(ValueError):
        Slit("S1", complex(float("nan"), 0.0))
    with pytest.raises(ValueError):
        Slit("S1", complex(0.0, float("inf")))


# -- group amplitudes ------------------------------------------------------------


def test_group_amplitude_cancelling_pair():
    assert group_amplitude(THREE_SLIT, {0, 1}) == 0j


def test_group_amplitude_single():
    assert group_amplitude(THREE_SLIT, {2}) == 1 + 0j


def test_group_amplitude_empty_group_is_zero():
    assert group_amplitude(THREE_SLIT, frozenset()) == 0j


def test_group_amplitude_closed_path():
    scenario = make_scenario([1, 2], open_flags=[True, False])
    with pytest.raises(BadIndex):
        group_amplitude(scenario, {1})


def test_group_amplitude_bad_index():
    with pytest.raises(BadIndex):
        group_amplitude(THREE_SLIT, {7})


def test_group_amplitude_too_large_for_a_float():
    scenario = make_scenario([1.5e308, 1.5e308])
    with pytest.raises(ValueError, match="too large for a float"):
        group_amplitude(scenario, {0, 1})


# Exact-arithmetic amplitudes: sums of bounded dyadic values never round,
# so additivity must hold bitwise.
dyadic = st.integers(-(2**20), 2**20).map(lambda k: k / 1024.0)
exact_amplitudes = st.lists(st.builds(complex, dyadic, dyadic), min_size=1, max_size=8)


@given(exact_amplitudes, st.data())
def test_group_amplitude_additive_over_disjoint_groups(amps, data):
    scenario = make_scenario(amps)
    indices = list(range(len(amps)))
    left = data.draw(st.sets(st.sampled_from(indices)))
    right = data.draw(st.sets(st.sampled_from(indices)).map(lambda s: s - left))
    union = group_amplitude(scenario, left | right)
    assert union == group_amplitude(scenario, left) + group_amplitude(scenario, right)


def test_group_amplitude_additivity_floats_near_exact():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 6)
        scenario = make_scenario([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)])
        split = rng.randint(1, n - 1)
        members = rng.sample(range(n), n)
        left, right = frozenset(members[:split]), frozenset(members[split:])
        total = group_amplitude(scenario, left | right)
        assert abs(total - (group_amplitude(scenario, left) + group_amplitude(scenario, right))) < 1e-12


# -- counting rates ----------------------------------------------------------------


def test_counting_rate_all_open_by_hand():
    # |1 - 1 + 1|^2 = 1
    assert counting_rate(THREE_SLIT, {0, 1, 2}) == 1.0


def test_counting_rate_single_path():
    assert counting_rate(THREE_SLIT, {0}) == 1.0


def test_counting_rate_empty_mask():
    with pytest.raises(BadIndex):
        counting_rate(THREE_SLIT, set())


def test_counting_rate_allows_closed_paths_in_mask():
    scenario = make_scenario([1, 2], open_flags=[True, False])
    assert counting_rate(scenario, {0, 1}) == 9.0


def test_interference_breaks_single_path_additivity():
    total = counting_rate(THREE_SLIT, {0, 1, 2})
    singles = sum(counting_rate(THREE_SLIT, {i}) for i in range(3))
    assert total == 1.0
    assert singles == 3.0
    assert total != singles


bounded = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
float_amplitudes = st.lists(st.builds(complex, bounded, bounded), min_size=1, max_size=6)


@given(float_amplitudes, st.data())
def test_counting_rate_equals_squared_group_amplitude(amps, data):
    scenario = make_scenario(amps)
    mask = data.draw(st.sets(st.sampled_from(range(len(amps))), min_size=1))
    assert counting_rate(scenario, mask) == abs(group_amplitude(scenario, mask)) ** 2


@given(float_amplitudes)
def test_interference_cross_term_identity(amps):
    scenario = make_scenario(amps)
    n = len(amps)
    total = counting_rate(scenario, set(range(n)))
    singles = sum(counting_rate(scenario, {i}) for i in range(n))
    cross = 2.0 * sum(
        (amps[i].conjugate() * amps[j]).real for i in range(n) for j in range(i + 1, n)
    )
    assert math.isclose(total - singles, cross, abs_tol=1e-12)


# -- open-position resolution -----------------------------------------------------


def test_partition_resolution_with_closed_slit():
    scenario = make_scenario([5, 1, -1, 1], open_flags=[False, True, True, True])
    positional = parse_partition("1,2|3", 3)
    resolved = partition_on_paths(scenario, positional)
    assert resolved == Partition((frozenset({1, 2}), frozenset({3})))
    assert format_scenario_partition(scenario, resolved) == format_partition(positional)


def test_partition_resolution_identity_when_all_open():
    positional = parse_partition("1,2|3", 3)
    assert partition_on_paths(THREE_SLIT, positional) == positional


def test_partition_resolution_rejects_wrong_universe():
    scenario = make_scenario([1, 1], open_flags=[True, False])
    with pytest.raises(BadIndex):
        partition_on_paths(scenario, parse_partition("1|2", 2))


# -- public surface ---------------------------------------------------------------

#: Every public name ``chslit`` exports; the dense reference model is
#: imported from ``chslit.reference``.  A change to the public surface has
#: to change this set.
PUBLIC_NAMES = {
    "BadIndex", "BRANCHES", "build_experiment", "build_framework", "builtin_scenario",
    "BUILTIN_SCENARIOS", "check_consistency", "ChslitError", "combine_queries",
    "conditional_probability", "ConditionUnsatisfied", "ConsistencyReport", "ContradictionRecord",
    "counting_rate", "DEFAULT_MAX_PATHS", "DEFAULT_TOLERANCE", "DegenerateScenario", "DETECTED",
    "enumerate_consistent_frameworks", "enumerate_partitions", "ExperimentModel", "find_contradictions",
    "format_partition", "format_scenario_partition", "Framework", "group_amplitude",
    "group_decoherence_closed_form", "InconsistentSet", "load_scenario", "NotInFramework",
    "parse_partition", "parse_scenario_partition", "Partition", "partition_on_paths", "PartSumMismatch",
    "Path", "query_event", "refine_slit", "save_scenario", "SchemaError", "Slit", "SlitPart",
    "SlitScenario", "TooLarge", "UNDETECTED",
}


def test_chslit_exports_exactly_the_pinned_public_names():
    public = {name for name, value in vars(chslit).items() if name[0] != "_" and not isinstance(value, types.ModuleType)}
    assert public == PUBLIC_NAMES and not hasattr(chslit, "__getattr__")
    assert len(PUBLIC_NAMES) == 45


def test_the_reference_record_types_load_without_dataclasses():
    script = (
        "import sys\n"
        "preloaded = 'dataclasses' in sys.modules\n"
        "import chslit.reference\n"
        "print(preloaded, 'dataclasses' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(FilePath(chslit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    preloaded, loaded = proc.stdout.split()
    if preloaded == "True":
        pytest.skip("this interpreter loads dataclasses before chslit is imported")
    assert loaded == "False"


# -- record types ---------------------------------------------------------------

#: Each record type, its fields in order, and a value for each field.
RECORDS = [
    (Path, ("index", "label", "amplitude", "is_open"), (0, "S1", 1 + 0j, True)),
    (SlitPart, ("label", "amplitude"), ("a", 1j)),
    (Slit, ("label", "amplitude", "is_open", "parts"), ("S1", 1 + 0j, False, (SlitPart("a", 1 + 0j),))),
    (Partition, ("groups",), ((frozenset({0, 1}), frozenset({2})),)),
    (SlitScenario, ("name", "slits", "metadata"), ("s", (Slit("S1", 1 + 0j),), {"seed": "1"})),
    (
        ExperimentModel,
        ("scenario", "amplitudes", "scale", "points", "norm"),
        (THREE_SLIT, (1 + 0j, -1 + 0j, 1 + 0j), 1 / 9, ((1, 0), (-1, 0), (1, 0)), 3),
    ),
    (
        ConsistencyReport,
        ("mode", "consistent", "max_violation", "offending_pair", "tolerance_used"),
        ("medium", False, 0.5, ("{S1} then detected", "{S2} then detected"), 1e-10),
    ),
    (Framework, ("partition", "mode", "probabilities", "report"), (Partition((frozenset({0}),)), "weak", {}, None)),
]


@pytest.mark.parametrize("kind, fields, values", RECORDS, ids=[kind.__name__ for kind, _, _ in RECORDS])
def test_record_types_take_their_fields_in_order_or_by_keyword(kind, fields, values):
    by_position = kind(*values)
    by_keyword = kind(**dict(zip(fields, values)))
    for record in (by_position, by_keyword):
        assert [getattr(record, name) for name in fields] == list(values)
    assert repr(by_position) == repr(by_keyword)


def test_record_types_keep_their_defaults():
    assert (Slit("S1", 1 + 0j).is_open, Slit("S1", 1 + 0j).parts) == (True, ())
    scenario = SlitScenario("s", [Slit("S1", 1 + 0j)])
    assert scenario.slits == (Slit("S1", 1 + 0j),) and scenario.metadata == {}


@pytest.mark.parametrize(
    "kind, fields, values",
    [r for r in RECORDS if r[0] is not SlitScenario],
    ids=[kind.__name__ for kind, _, _ in RECORDS if kind is not SlitScenario],
)
def test_record_types_have_no_instance_dict(kind, fields, values):
    # A record costs what its tuple costs, and takes no attribute but its fields.
    record = kind(*values)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 0


#: For each record type whose constructor checks its fields: a valid record
#: and a replacement of some of its fields that the constructor refuses.
BAD_REPLACEMENTS = [
    (SlitPart("a", 1), {"amplitude": float("nan")}),
    (SlitPart("a", 1), {"amplitude": "one"}),
    (Slit("S1", 1), {"amplitude": float("inf")}),
    (Slit("S1", 1), {"parts": (SlitPart("a", 5),)}),
    (Slit("S1", 1), {"parts": (SlitPart("a", 1), SlitPart("a", 0))}),
    (SlitScenario("x", [Slit("A", 1)]), {"slits": (Slit("A", 1), Slit("A", 2))}),
    (Partition([{0}, {1}]), {"groups": ({0}, {0, 1})}),
    (Partition([{0}, {1}]), {"groups": ({0}, ())}),
]


def _raised(build) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "record, bad", BAD_REPLACEMENTS, ids=[f"{type(r).__name__}-{i}" for i, (r, _) in enumerate(BAD_REPLACEMENTS)]
)
def test_replace_and_make_refuse_what_the_constructor_refuses(record, bad):
    kind = type(record)
    fields = {**record._asdict(), **bad}
    expected = _raised(lambda: kind(**fields))
    assert issubclass(expected[0], (ValueError, chslit.ChslitError))
    assert _raised(lambda: record._replace(**bad)) == expected
    assert _raised(lambda: kind._make(fields.values())) == expected
    if hasattr(copy, "replace"):  # Python 3.13 and later
        assert _raised(lambda: copy.replace(record, **bad)) == expected


def test_replace_and_make_build_what_the_constructor_builds():
    assert type(SlitPart("a", 1)._replace(amplitude=2).amplitude) is complex
    assert Slit._make(["S", 1, False, [SlitPart("a", 1)]]) == Slit("S", 1, False, (SlitPart("a", 1),))
    scenario = SlitScenario("x", [Slit("A", 1)])._replace(slits=[Slit("B", 2)])
    assert scenario.slits == (Slit("B", 2),) and scenario.metadata == {}


def test_partition_replace_and_make_give_the_canonical_partition():
    canonical = Partition((frozenset({0, 1}), frozenset({2})))
    replaced = Partition([{0}, {1}])._replace(groups=({2}, {0, 1}))
    assert replaced == canonical and replaced.groups == canonical.groups and len(replaced) == 2
    assert Partition._make([[{3}, {1}, {0, 2}]]) == Partition([{0, 2}, {1}, {3}])
    with pytest.raises(BadIndex, match="path 1 appears in two groups"):
        Partition([{0}, {1}])._replace(groups=({0}, {0, 1}))


def test_scenario_paths_are_computed_on_first_use_only():
    scenario = make_scenario([1, -1, 1])
    assert "paths" not in vars(scenario)
    assert scenario.paths is scenario.paths and "paths" in vars(scenario)
