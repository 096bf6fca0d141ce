"""Scenario documents, built-ins and sub-slit refinement."""

from __future__ import annotations

import json
from itertools import combinations

import pytest

from chslit import (
    AlreadyRefined,
    ParseError,
    PartSumMismatch,
    SchemaError,
    Slit,
    SlitScenario,
    UnknownScenario,
    UnknownSlit,
    build_experiment,
    builtin_scenario,
    conditional_probability,
    group_amplitude,
    load_scenario,
    parse_scenario_partition,
    refine_slit,
    save_scenario,
)

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
    with pytest.raises(ParseError):
        load_scenario("{not json")


def test_undecodable_bytes_are_a_parse_error(tmp_path, capsys):
    from chslit.cli import main

    with pytest.raises(ParseError):
        load_scenario(b"\xff{}")
    path = tmp_path / "latin1.json"
    path.write_bytes(THREE_SLIT_DOC.replace("S1", "S\xe9").encode("latin-1"))
    assert main(["frameworks", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "not valid JSON" in err


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


def test_load_then_save_is_canonical_identity():
    canonical = save_scenario(load_scenario(THREE_SLIT_DOC))
    assert save_scenario(load_scenario(canonical)) == canonical


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
    with pytest.raises(UnknownScenario):
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
    with pytest.raises(UnknownSlit):
        refine_slit(builtin_scenario("three-slit-contradiction"), "S9", [("a", 0j)])


def test_refine_twice_rejected():
    footnote = builtin_scenario("two-slit-footnote")
    with pytest.raises(AlreadyRefined):
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
    with pytest.raises(ParseError):
        load_scenario(text)
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["check", "--file", str(path), "--partition", "1"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "nested too deeply" in err
