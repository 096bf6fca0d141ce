"""Scenario documents, built-ins and sub-slit refinement."""

from __future__ import annotations

import json
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from chslit import (
    PartSumMismatch,
    Path,
    SchemaError,
    Slit,
    SlitPart,
    SlitScenario,
    build_experiment,
    builtin_scenario,
    conditional_probability,
    group_amplitude,
    load_scenario,
    parse_scenario_partition,
    refine_slit,
    save_scenario,
)
from conftest import random_scenario

THREE_SLIT_DOC = """\
{
  "version": 1,
  "name": "three-slit-contradiction",
  "slits": [
    {"label": "S1", "amplitude": {"re": 1.0, "im": 0.0}, "open": true},
    {"label": "S2", "amplitude": {"re": -1.0, "im": 0.0}, "open": true},
    {"label": "S3", "amplitude": {"re": 1.0, "im": 0.0}, "open": true}
  ]
}
"""


def test_load_three_slit_document():
    scenario = load_scenario(THREE_SLIT_DOC)
    assert scenario.name == "three-slit-contradiction"
    assert scenario.amplitudes == (1 + 0j, -1 + 0j, 1 + 0j)
    assert scenario.open_indices == (0, 1, 2)


def test_load_accepts_bytes():
    assert load_scenario(THREE_SLIT_DOC.encode()).n_paths == 3


def test_load_split_slit_contributes_one_path_per_part():
    doc = {
        "version": 1,
        "name": "split",
        "slits": [
            {"label": "S1", "amplitude": {"re": 1.0, "im": 0.0}, "open": True},
            {
                "label": "S2",
                "amplitude": {"re": 0.0, "im": 0.0},
                "open": True,
                "parts": [
                    {"label": "upper", "amplitude": {"re": 1.0, "im": 0.0}},
                    {"label": "lower", "amplitude": {"re": -1.0, "im": 0.0}},
                ],
            },
            {"label": "S3", "amplitude": {"re": 1.0, "im": 0.0}, "open": True},
        ],
    }
    scenario = load_scenario(json.dumps(doc))
    assert scenario.n_paths == 4
    assert [p.label for p in scenario.paths] == ["S1", "S2.upper", "S2.lower", "S3"]
    assert scenario.amplitudes[1:3] == (1 + 0j, -1 + 0j)


def test_load_part_sum_mismatch_names_the_slit():
    doc = json.loads(THREE_SLIT_DOC)
    doc["slits"][1]["parts"] = [
        {"label": "upper", "amplitude": {"re": 1.0, "im": 0.0}},
        {"label": "lower", "amplitude": {"re": 1.0, "im": 0.0}},
    ]
    with pytest.raises(PartSumMismatch) as excinfo:
        load_scenario(json.dumps(doc))
    assert excinfo.value.slit_label == "S2"


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_load_part_sum_check_is_relative_to_the_amplitude_scale(scale):
    def doc(slit, parts):
        parts = [{"label": f"p{j}", "amplitude": {"re": a, "im": 0.0}} for j, a in enumerate(parts)]
        return json.dumps({"version": 1, "name": "parts", "slits": [
            {"label": "S1", "amplitude": {"re": slit, "im": 0.0}, "open": True, "parts": parts},
        ]})

    scenario = load_scenario(doc(0.3 * scale, [0.1 * scale, 0.2 * scale]))
    assert scenario.amplitudes == (0.1 * scale, 0.2 * scale)
    with pytest.raises(PartSumMismatch):
        load_scenario(doc(0.0, [scale, scale]))


def test_load_rejects_malformed_json():
    with pytest.raises(SchemaError) as excinfo:
        load_scenario("{not json")
    assert excinfo.value.field_path == "$"
    assert str(excinfo.value).startswith("$: scenario document is not valid JSON: ")


def test_undecodable_bytes_are_a_parse_error(tmp_path, capsys):
    from chslit.cli import main

    with pytest.raises(SchemaError) as excinfo:
        load_scenario(b"\xff{}")
    assert excinfo.value.field_path == "$"
    assert str(excinfo.value).startswith("$: scenario document is not valid JSON: ")
    path = tmp_path / "latin1.json"
    path.write_bytes(THREE_SLIT_DOC.replace("S1", "S\xe9").encode("latin-1"))
    assert main(["frameworks", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("chslit: error: $: scenario document is not valid JSON: ")


@pytest.mark.parametrize(
    "mutate, field_path",
    [
        (lambda d: d.pop("version"), "version"),
        (lambda d: d.update(version=2), "version"),
        (lambda d: d.pop("name"), "name"),
        (lambda d: d.update(slits={}), "slits"),
        (lambda d: d.update(slits=[]), "slits"),
        (lambda d: d["slits"][0].pop("label"), "slits[0].label"),
        (lambda d: d["slits"][1].pop("open"), "slits[1].open"),
        (lambda d: d["slits"][1].update(open="yes"), "slits[1].open"),
        (lambda d: d["slits"][2]["amplitude"].pop("im"), "slits[2].amplitude.im"),
        (lambda d: d["slits"][2]["amplitude"].update(re="1"), "slits[2].amplitude.re"),
        (lambda d: d["slits"][0].update(label="S2"), "slits[1].label"),
    ],
)
def test_load_schema_errors_carry_field_paths(mutate, field_path):
    doc = json.loads(THREE_SLIT_DOC)
    mutate(doc)
    with pytest.raises(SchemaError) as excinfo:
        load_scenario(json.dumps(doc))
    assert excinfo.value.field_path == field_path


def _with_parts(d, parts):
    d["slits"][0].update(amplitude={"re": 1.0, "im": 0.0}, parts=parts)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: [d], "$: expected a JSON object"),
        (lambda d: d["slits"].insert(1, "S9"), "slits[1]: expected an object"),
        (lambda d: _with_parts(d, []), "slits[0].parts: must not be empty when present"),
        (
            lambda d: _with_parts(d, [{"label": "a", "amplitude": {"re": 1.0, "im": 0.0}}, 7]),
            "slits[0].parts[1]: expected an object",
        ),
        (
            lambda d: _with_parts(d, [{"label": "a", "amplitude": {"re": 0.5, "im": 0.0}}] * 2),
            "slits[0].parts[1].label: duplicate part label 'a'",
        ),
        (lambda d: d.update(metadata=["seed", "1"]), "metadata: expected an object"),
    ],
)
def test_every_schema_branch_is_one_error_line_through_the_cli(mutate, message, tmp_path, capsys):
    from chslit.cli import main

    # Each mutation edits the document in place, or returns one to replace it.
    doc = json.loads(THREE_SLIT_DOC)
    text = json.dumps(mutate(doc) or doc)
    with pytest.raises(SchemaError) as excinfo:
        load_scenario(text)
    assert str(excinfo.value) == message and excinfo.value.field_path == message.split(": ")[0]
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main(["frameworks", "--file", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"chslit: error: {message}\n"


def test_load_rejects_a_boolean_version():
    # JSON true loads as Python True, and True == 1.
    doc = json.loads(THREE_SLIT_DOC)
    doc["version"] = True
    with pytest.raises(SchemaError) as excinfo:
        load_scenario(json.dumps(doc))
    assert excinfo.value.field_path == "version"
    assert "got True" in str(excinfo.value)


def test_load_rejects_non_finite_numbers():
    # json.loads happily accepts NaN/Infinity literals; the schema must not.
    text = THREE_SLIT_DOC.replace('"re": 1.0, "im": 0.0}, "open": true},', '"re": NaN, "im": 0.0}, "open": true},', 1)
    with pytest.raises(SchemaError):
        load_scenario(text)


def test_save_load_round_trip_on_builtins():
    for name in ("three-slit-contradiction", "two-slit-footnote", "generic"):
        scenario = builtin_scenario(name)
        again = load_scenario(save_scenario(scenario))
        assert again.name == scenario.name
        assert again.slits == scenario.slits
        assert dict(again.metadata) == dict(scenario.metadata)
        # Canonical documents reproduce byte for byte.
        assert save_scenario(again) == save_scenario(scenario)


def _typed(record):
    """A record as its type, its fields with their types, and its parts alike."""
    return type(record), [(type(v), v) for v in record], [*map(_typed, getattr(record, "parts", ()))]


def test_loaded_slits_and_paths_equal_what_the_checking_constructors_build():
    # The loader builds a slit without parts, and the scenario, past their
    # constructors, whose checks it has already made, and paths are built
    # past Path's; each must equal, field by field and type by type, what
    # the constructors build.  Generic and planted 9- and 10-path documents,
    # and the footnote's, with a closed slit and one split into parts.
    rng = random.Random("loader")
    scenarios = [random_scenario(rng, n, kind) for kind in ("generic", "planted") for n in (9, 10, 9, 10)]
    scenarios += [builtin_scenario("two-slit-footnote"), builtin_scenario("generic")]
    for scenario in scenarios:
        loaded = load_scenario(save_scenario(scenario))
        slits = [Slit(s.label, s.amplitude, s.is_open, [SlitPart(*p) for p in s.parts]) for s in scenario.slits]
        checked = SlitScenario(scenario.name, slits, scenario.metadata)
        assert type(loaded) is SlitScenario and (loaded.name, loaded.metadata) == (checked.name, checked.metadata)
        assert type(loaded.slits) is tuple and list(map(_typed, loaded.slits)) == list(map(_typed, checked.slits))
        paths = []
        for slit in checked.slits:
            for label, amplitude in [(f"{slit.label}.{p.label}", p.amplitude) for p in slit.parts] or [slit[:2]]:
                paths.append(Path(len(paths), label, amplitude, slit.is_open))
        assert list(map(_typed, loaded.paths)) == list(map(_typed, paths))


def test_load_then_save_is_canonical_identity():
    canonical = save_scenario(load_scenario(THREE_SLIT_DOC))
    assert save_scenario(load_scenario(canonical)) == canonical


#: Components that stress the document's number format: signed zeros,
#: subnormals and values near the double range, beside ordinary ones.  Parts
#: stay within +-1e307, so three of them sum without overflow.
_EDGE_COMPONENTS = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 1e307, -1e307]
_part_component = st.sampled_from(_EDGE_COMPONENTS) | st.floats(-1e307, 1e307)
_slit_component = st.sampled_from(_EDGE_COMPONENTS) | st.floats(allow_nan=False, allow_infinity=False)
_part_amplitudes = st.builds(complex, _part_component, _part_component)
_slit_amplitudes = st.builds(complex, _slit_component, _slit_component)


@st.composite
def _constructed_scenarios(draw) -> SlitScenario:
    slits = []
    for label in draw(st.lists(st.text(max_size=4), min_size=1, max_size=5, unique=True)):
        is_open = draw(st.booleans())
        part_labels = draw(st.lists(st.text(max_size=3), max_size=3, unique=True))
        if not part_labels:
            slits.append(Slit(label, draw(_slit_amplitudes), is_open))
            continue
        parts = [SlitPart(part_label, draw(_part_amplitudes)) for part_label in part_labels]
        total = complex(math.fsum(p.amplitude.real for p in parts), math.fsum(p.amplitude.imag for p in parts))
        slits.append(Slit(label, total, is_open, parts))
    metadata = draw(st.dictionaries(st.text(max_size=4), st.text(max_size=6), max_size=3))
    return SlitScenario(draw(st.text(max_size=8)), slits, metadata)


def _path_bits(scenario: SlitScenario) -> list[tuple[str, bool, str, str]]:
    return [(p.label, p.is_open, p.amplitude.real.hex(), p.amplitude.imag.hex()) for p in scenario.paths]


@settings(max_examples=100, deadline=None)
@given(_constructed_scenarios())
def test_every_constructed_scenario_round_trips_through_its_document(scenario):
    doc = save_scenario(scenario)
    loaded = load_scenario(doc)
    assert save_scenario(loaded) == doc
    assert _path_bits(loaded) == _path_bits(scenario)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SlitScenario("x", [Slit("A", 1)], {"seed": 1}), "metadata keys and values must be strings"),
        (lambda: SlitScenario("x", [Slit("A", 1)], {1: "seed"}), "metadata keys and values must be strings"),
        (lambda: SlitScenario(1, [Slit("A", 1)]), "scenario name must be a string"),
        (lambda: SlitScenario("x", [Slit(1, 1)]), "slit label must be a string"),
        (lambda: Slit("A", 0j, parts=[SlitPart(1, 0j)]), "part label must be a string"),
        (lambda: Slit("A", 1, is_open=1), "is_open must be True or False"),
        (lambda: SlitScenario("x", []), "a scenario needs at least one slit"),
    ],
    ids=["metadata-value", "metadata-key", "name", "slit-label", "part-label", "is-open", "no-slits"],
)
def test_constructors_refuse_what_the_loader_refuses(build, message):
    # Each of these would save a document that load_scenario refuses.
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Slit("A", 1, parts=[("a", 1)]), "each part of slit 'A' must be a SlitPart, got ('a', 1)"),
        (lambda: Slit("A", 0j, parts="ab"), "each part of slit 'A' must be a SlitPart, got 'a'"),
        (lambda: SlitScenario("x", [("A", 1)]), "each slit must be a Slit, got ('A', 1)"),
        (lambda: SlitScenario("x", "AB"), "each slit must be a Slit, got 'A'"),
        (lambda: Slit("A", None), "slit 'A' amplitude must be a number, got None"),
        (lambda: SlitPart("a", [1]), "part 'a' amplitude must be a number, got [1]"),
        (lambda: Slit("A", "1"), "slit 'A' amplitude must be a number, got '1'"),
        (lambda: SlitPart("a", "1j"), "part 'a' amplitude must be a number, got '1j'"),
    ],
    ids=[
        "part-tuple", "parts-string", "slit-tuple", "slits-string",
        "slit-amplitude", "part-amplitude", "slit-amplitude-string", "part-amplitude-string",
    ],
)
def test_constructors_refuse_items_of_the_wrong_type_by_name(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


# -- built-ins ---------------------------------------------------------------------


def test_builtin_three_slit():
    scenario = builtin_scenario("three-slit-contradiction")
    assert [(p.label, p.amplitude) for p in scenario.paths] == [
        ("S1", 1 + 0j),
        ("S2", -1 + 0j),
        ("S3", 1 + 0j),
    ]


def test_builtin_footnote():
    scenario = builtin_scenario("two-slit-footnote")
    open_paths = [(p.label, p.amplitude) for p in scenario.paths if p.is_open]
    assert open_paths == [("S2.upper", 1 + 0j), ("S2.lower", -1 + 0j), ("S3", 1 + 0j)]
    assert not scenario.paths[0].is_open


def test_builtin_generic_has_no_vanishing_subset_sums():
    scenario = builtin_scenario("generic")
    assert scenario.metadata["seed"]
    amps = scenario.amplitudes
    for size in range(1, len(amps) + 1):
        for combo in combinations(range(len(amps)), size):
            assert abs(sum(amps[i] for i in combo)) > 1e-2


def test_builtin_unknown_name():
    with pytest.raises(ValueError, match="no built-in scenario named 'no-such'"):
        builtin_scenario("no-such")


# -- refinement ---------------------------------------------------------------------


def _pre_footnote():
    doc = {
        "version": 1,
        "name": "pre-footnote",
        "slits": [
            {"label": "S1", "amplitude": {"re": 0.0, "im": 0.0}, "open": False},
            {"label": "S2", "amplitude": {"re": 0.0, "im": 0.0}, "open": True},
            {"label": "S3", "amplitude": {"re": 1.0, "im": 0.0}, "open": True},
        ],
    }
    return load_scenario(json.dumps(doc))


def test_refine_zero_slit_reproduces_footnote_paths():
    refined = refine_slit(_pre_footnote(), "S2", [("upper", 1 + 0j), ("lower", -1 + 0j)])
    footnote = builtin_scenario("two-slit-footnote")
    assert [(p.label, p.amplitude, p.is_open) for p in refined.paths] == [
        (p.label, p.amplitude, p.is_open) for p in footnote.paths
    ]


def test_refine_single_part_keeps_amplitudes():
    scenario = builtin_scenario("three-slit-contradiction")
    refined = refine_slit(scenario, "S1", [("whole", 1 + 0j)])
    assert refined.paths[0].label == "S1.whole"
    assert refined.amplitudes == scenario.amplitudes


def test_refine_part_sum_mismatch():
    scenario = builtin_scenario("three-slit-contradiction")
    with pytest.raises(PartSumMismatch):
        refine_slit(scenario, "S1", [("a", 1 + 0j), ("b", 1 + 0j)])


def test_refine_without_parts_names_the_slit():
    with pytest.raises(ValueError, match="slit 'S1' needs at least one sub-part"):
        refine_slit(builtin_scenario("three-slit-contradiction"), "S1", [])


def test_refine_unknown_slit():
    with pytest.raises(ValueError, match="no slit labelled 'S9'"):
        refine_slit(builtin_scenario("three-slit-contradiction"), "S9", [("a", 0j)])


def test_refine_twice_rejected():
    footnote = builtin_scenario("two-slit-footnote")
    with pytest.raises(ValueError, match="slit 'S2' already has parts"):
        refine_slit(footnote, "S2", [("again", 0j)])


def test_refine_preserves_group_amplitudes_away_from_the_split():
    scenario = builtin_scenario("three-slit-contradiction")
    refined = refine_slit(scenario, "S2", [("upper", -1.5 + 0.25j), ("lower", 0.5 - 0.25j)])
    # S1 keeps index 0; S3 moves from index 2 to 3.
    assert group_amplitude(refined, {0}) == group_amplitude(scenario, {0})
    assert group_amplitude(refined, {3}) == group_amplitude(scenario, {2})
    # The whole refined slit still sums to the original amplitude.
    assert group_amplitude(refined, {1, 2}) == group_amplitude(scenario, {1})
    assert group_amplitude(refined, {0, 1, 2, 3}) == group_amplitude(scenario, {0, 1, 2})


def test_footnote_retrodictions_clash_through_the_engine():
    model = build_experiment(builtin_scenario("two-slit-footnote"))
    scenario = model.scenario
    coarse = parse_scenario_partition(scenario, "1,2|3")
    fine = parse_scenario_partition(scenario, "1|2,3")
    # {S2.upper, S2.lower} vs {S3}: detected particle surely via S3 ...
    assert conditional_probability(model, coarse, {3}) == pytest.approx(1.0, abs=1e-12)
    # ... but splitting the other way makes it surely via S2.upper.
    assert conditional_probability(model, fine, {1}) == pytest.approx(1.0, abs=1e-12)


def test_a_scenario_keeps_its_own_copy_of_the_metadata():
    metadata = {"seed": "1"}
    scenario = SlitScenario("x", [Slit("A", 1)], metadata)
    metadata["seed"] = "2"
    assert scenario.metadata == {"seed": "1"}
    assert json.loads(save_scenario(scenario))["metadata"] == {"seed": "1"}
    refined = refine_slit(scenario, "A", [("a", 1)])
    assert refined.metadata == {"seed": "1"} and refined.metadata is not scenario.metadata


# -- hostile documents ----------------------------------------------------------------


def test_integer_literal_beyond_the_double_range_is_a_schema_error(tmp_path, capsys):
    from chslit.cli import main

    text = THREE_SLIT_DOC.replace('"re": -1.0', '"re": -' + "9" * 400, 1)
    with pytest.raises(SchemaError) as excinfo:
        load_scenario(text)
    assert excinfo.value.field_path == "slits[1].amplitude.re"
    assert "finite" in str(excinfo.value)
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert main(["frameworks", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "must be finite" in err


def test_deeply_nested_document_is_a_parse_error(tmp_path, capsys):
    from chslit.cli import main

    text = "[" * 100_000 + "]" * 100_000
    with pytest.raises(SchemaError) as excinfo:
        load_scenario(text)
    assert excinfo.value.field_path == "$"
    assert str(excinfo.value) == "$: scenario document is nested too deeply"
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["check", "--file", str(path), "--partition", "1"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["chslit: error: $: scenario document is nested too deeply"]
