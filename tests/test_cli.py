"""Command-line behaviour: output, formats, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chslit
from chslit import (
    build_experiment,
    builtin_scenario,
    conditional_probability,
    parse_scenario_partition,
    save_scenario,
)
from chslit.cli import build_parser, main
from conftest import make_scenario

DEMO = ["--demo", "three-slit-contradiction"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check ---------------------------------------------------------------------


def test_check_consistent_partition(capsys):
    code, out, _ = run(capsys, "check", *DEMO, "--partition", "1,2|3")
    assert code == 0
    assert "consistent: yes" in out


def test_check_inconsistent_partition_reports_violation(capsys):
    code, out, _ = run(capsys, "check", *DEMO, "--partition", "1,3|2")
    assert code == 3
    assert "consistent: no" in out
    # 2/9 with twelve significant digits.
    assert "max violation: 0.222222222222" in out


def test_check_overlapping_groups_is_an_input_error(capsys):
    code, _, err = run(capsys, "check", *DEMO, "--partition", "1,2|2")
    assert code == 2
    assert "--partition" in err and "two groups" in err


def test_check_json_payload_round_trips(capsys):
    code, out, _ = run(capsys, "check", *DEMO, "--partition", "1,2|3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "consistency"
    assert report["payload"]["consistent"] is True
    assert json.loads(json.dumps(report)) == report


def test_check_weak_mode_flag(capsys):
    code, out, _ = run(capsys, "check", *DEMO, "--partition", "1|2|3", "--mode", "weak")
    assert code == 3
    assert "mode: weak" in out


# -- frameworks -------------------------------------------------------------------


def test_frameworks_lists_the_three_survivors(capsys):
    code, out, _ = run(capsys, "frameworks", *DEMO)
    assert code == 0
    assert "consistent frameworks: 3" in out
    for text in ("framework 1,2,3", "framework 1,2|3", "framework 1|2,3"):
        assert text in out


def test_frameworks_generic_only_coarsest(capsys):
    code, out, _ = run(capsys, "frameworks", "--demo", "generic")
    assert code == 0
    assert "consistent frameworks: 1" in out


def test_frameworks_footnote_legend_names_subslit_paths(capsys):
    code, out, _ = run(capsys, "frameworks", "--demo", "two-slit-footnote")
    assert code == 0
    assert "open paths: 1=S2.upper 2=S2.lower 3=S3" in out
    assert "consistent frameworks: 3" in out


def test_frameworks_cap_exceeded(capsys):
    code, _, err = run(capsys, "frameworks", *DEMO, "--max-n", "2")
    assert code == 2
    assert "cap of 2" in err


def test_frameworks_default_cap_blocks_thirteen_paths(capsys, tmp_path):
    doc = {
        "version": 1,
        "name": "thirteen",
        "slits": [
            {"label": f"S{i}", "amplitude": {"re": 1.0, "im": 0.0}, "open": True}
            for i in range(1, 14)
        ],
    }
    path = tmp_path / "thirteen.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "frameworks", "--file", str(path))
    assert code == 2
    assert "cap of 12" in err


def test_frameworks_on_twenty_generic_paths_with_a_raised_cap(capsys, tmp_path):
    rng = random.Random(20)
    doc = {
        "version": 1,
        "name": "twenty",
        "slits": [
            {"label": f"S{i}", "amplitude": {"re": rng.uniform(-1, 1), "im": rng.uniform(-1, 1)}, "open": True}
            for i in range(1, 21)
        ],
    }
    path = tmp_path / "twenty.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "frameworks", "--file", str(path), "--max-n", "20", "--format", "json")
    assert code == 0
    frameworks = json.loads(out)["payload"]["frameworks"]
    assert [f["partition"] for f in frameworks] == [",".join(str(i) for i in range(1, 21))]


def test_frameworks_cap_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("CH_MAX_PATHS", "2")
    code, _, err = run(capsys, "frameworks", *DEMO)
    assert code == 2
    assert "cap of 2" in err
    monkeypatch.setenv("CH_MAX_PATHS", "not-a-number")
    code, _, err = run(capsys, "frameworks", *DEMO)
    assert code == 2
    assert "CH_MAX_PATHS" in err


def test_frameworks_json_probabilities_are_exact(capsys):
    code, out, _ = run(capsys, "frameworks", *DEMO, "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["count"] == 3
    scenario = builtin_scenario("three-slit-contradiction")
    model = build_experiment(scenario)
    by_partition = {f["partition"]: f for f in payload["frameworks"]}
    expected = conditional_probability(model, parse_scenario_partition(scenario, "1,2|3"), {2})
    rows = by_partition["1,2|3"]["probabilities"]
    detected = {tuple(r["group"]): r["probability"] for r in rows if r["branch"] == "detected"}
    # JSON floats reproduce the library values bit for bit.
    assert detected[(3,)] / sum(detected.values()) == expected


# -- query ------------------------------------------------------------------------


def test_query_certainty_line_matches_documented_shape(capsys):
    code, out, _ = run(capsys, "query", *DEMO, "--framework", "1,2|3", "--event", "3", "--given-detected")
    assert code == 0
    assert out.strip() == "In analysis 1,2|3: P(went through {3} | detected) = 1"


def test_query_single_framework_rule_violation(capsys):
    code, _, err = run(capsys, "query", *DEMO, "--framework", "1,2|3", "--event", "1", "--given-detected")
    assert code == 4
    assert "single-framework rule" in err


def test_query_null_event_in_other_analysis(capsys):
    code, out, _ = run(capsys, "query", *DEMO, "--framework", "1|2,3", "--event", "2,3", "--given-detected")
    assert code == 0
    assert out.strip() == "In analysis 1|2,3: P(went through {2,3} | detected) = 0"


def test_query_inconsistent_framework_is_an_input_error(capsys):
    code, _, err = run(capsys, "query", *DEMO, "--framework", "1,3|2", "--event", "2", "--given-detected")
    assert code == 2
    assert "not a consistent set" in err


def test_query_conjunction_across_incompatible_frameworks_exits_4(capsys):
    code, _, err = run(
        capsys, "query", *DEMO, "--framework", "1,2|3", "--event", "3", "--given-detected",
        "--and", "1@1|2,3",
    )
    assert code == 4
    assert "single-framework rule" in err


def test_query_conjunction_with_shared_context(capsys):
    code, out, _ = run(
        capsys, "query", *DEMO, "--framework", "1,2,3", "--event", "1,2,3", "--given-detected",
        "--and", "3@1,2|3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["probability"] == 1.0
    assert payload["and"]["probability"] == 1.0
    assert payload["conjunction"]["framework"] == "1,2|3"
    assert payload["conjunction"]["event"] == [3]
    assert payload["conjunction"]["probability"] == 1.0


def test_query_malformed_and_flag(capsys):
    code, _, err = run(capsys, "query", *DEMO, "--framework", "1,2|3", "--event", "3", "--and", "nonsense")
    assert code == 2
    assert "--and" in err


def test_query_null_condition_exits_5(capsys, tmp_path):
    doc = {
        "version": 1,
        "name": "dark",
        "slits": [
            {"label": "S1", "amplitude": {"re": 1.0, "im": 0.0}, "open": False},
            {"label": "S2", "amplitude": {"re": 0.0, "im": 0.0}, "open": True},
            {"label": "S3", "amplitude": {"re": 0.0, "im": 0.0}, "open": True},
        ],
    }
    path = tmp_path / "dark.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "query", "--file", str(path), "--framework", "1|2",
                       "--event", "1", "--given-detected")
    assert code == 5
    assert "zero probability" in err


def test_query_unconditional(capsys):
    code, out, _ = run(capsys, "query", *DEMO, "--framework", "1,2|3", "--event", "3")
    assert code == 0
    assert out.strip() == "In analysis 1,2|3: P(went through {3}) = 0.333333333333"


# -- contradictions ------------------------------------------------------------------


def test_contradictions_demo_emits_both_kinds(capsys):
    code, out, _ = run(capsys, "contradictions", *DEMO)
    assert code == 0
    assert "disjoint-certainty: P({3} | detected) = 1 in analysis 1,2|3 vs P({1} | detected) = 1 in analysis 1|2,3" in out
    assert "implication-violation: P({3} | detected) = 1 in analysis 1,2|3 but P({2,3} | detected) = 0 in analysis 1|2,3" in out


def test_contradictions_footnote_names_the_subslit(capsys):
    code, out, _ = run(capsys, "contradictions", "--demo", "two-slit-footnote")
    assert code == 0
    assert "disjoint-certainty" in out
    assert "S2.upper" in out and "S3" in out


def test_contradictions_generic_none_found(capsys):
    code, out, _ = run(capsys, "contradictions", "--demo", "generic")
    assert code == 0
    assert "no contradictions found" in out


def test_contradictions_json(capsys):
    code, out, _ = run(capsys, "contradictions", *DEMO, "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["count"] == 3
    kinds = {r["kind"] for r in payload["records"]}
    assert kinds == {"disjoint-certainty", "implication-violation"}


def _alternating_file(tmp_path, n):
    doc = {
        "version": 1,
        "name": f"alternating-{n}",
        "slits": [{"label": f"S{i + 1}", "amplitude": {"re": (-1.0) ** i, "im": 0.0}, "open": True} for i in range(n)],
    }
    path = tmp_path / f"alternating-{n}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_contradictions_format_each_framework_once(capsys, monkeypatch, tmp_path, fmt):
    alternating = _alternating_file(tmp_path, 5)
    code, out, _ = run(capsys, "contradictions", "--file", alternating, "--format", "json")
    records = json.loads(out)["payload"]["records"]
    assert (code, len(records)) == (0, 243)
    distinct = {r["framework_a"] for r in records} | {r["framework_b"] for r in records}
    calls = []
    original = chslit.cli.format_scenario_partition
    monkeypatch.setattr(chslit.cli, "format_scenario_partition", lambda *a: calls.append(a) or original(*a))
    assert run(capsys, "contradictions", "--file", alternating, "--format", fmt)[0] == 0
    assert 0 < len(calls) <= len(distinct)


def test_text_lists_the_json_records_and_rows_in_order(capsys, tmp_path):
    alternating = _alternating_file(tmp_path, 5)
    code, out, _ = run(capsys, "contradictions", "--file", alternating, "--format", "json")
    records = json.loads(out)["payload"]["records"]
    expected = ["scenario: alternating-5", "mode: medium"]
    for r in records:
        joiner = "vs" if r["kind"] == "disjoint-certainty" else "but"
        event_a, event_b = (",".join(map(str, r[key])) for key in ("event_a", "event_b"))
        expected.append(
            f"{r['kind']}: P({{{event_a}}} | detected) = {r['p_a']:.12g} in analysis {r['framework_a']} "
            f"{joiner} P({{{event_b}}} | detected) = {r['p_b']:.12g} in analysis {r['framework_b']}"
        )
        expected.append(f"  paths {{{','.join(r['labels_a'])}}} {joiner} {{{','.join(r['labels_b'])}}}")
    assert (code, len(records)) == (0, 243)
    assert run(capsys, "contradictions", "--file", alternating) == (0, "\n".join(expected) + "\n", "")

    code, out, _ = run(capsys, "frameworks", "--file", alternating, "--format", "json")
    payload = json.loads(out)["payload"]
    expected = [
        "scenario: alternating-5",
        "mode: medium",
        "open paths: 1=S1 2=S2 3=S3 4=S4 5=S5",
        f"consistent frameworks: {payload['count']}",
    ]
    for framework in payload["frameworks"]:
        expected.append(f"framework {framework['partition']}")
        for row in framework["probabilities"]:
            group = ",".join(map(str, row["group"]))
            expected.append(f"  P({{{group}}}, {row['branch']}) = {row['probability']:.12g}")
            assert row["labels"] == [f"S{p}" for p in row["group"]]
    assert code == 0 and payload["count"] == len(payload["frameworks"]) > 1
    assert run(capsys, "frameworks", "--file", alternating) == (0, "\n".join(expected) + "\n", "")


# -- rates ---------------------------------------------------------------------------


def test_rates_full_mask(capsys):
    code, out, _ = run(capsys, "rates", *DEMO, "--mask", "1,2,3")
    assert code == 0
    assert "rate(1,2,3) = 1" in out


def test_rates_cancelling_mask(capsys):
    code, out, _ = run(capsys, "rates", *DEMO, "--mask", "1,2")
    assert code == 0
    assert "rate(1,2) = 0" in out


def test_rates_all_single_and_deficit(capsys):
    code, out, _ = run(capsys, "rates", *DEMO, "--all-single")
    assert code == 0
    for line in ("S1 (path 1): 1", "S2 (path 2): 1", "S3 (path 3): 1",
                 "sum of singles: 3", "interference deficit: -2"):
        assert line in out


def test_rates_bad_mask(capsys):
    code, _, err = run(capsys, "rates", *DEMO, "--mask", "1,9")
    assert code == 2
    assert "out of range" in err
    code, _, err = run(capsys, "rates", *DEMO, "--mask", "")
    assert code == 2
    code, _, err = run(capsys, "rates", *DEMO)
    assert code == 2
    assert "--mask" in err


_INDEX_FLAGS = {
    "--partition": lambda value: ["check", *DEMO, "--partition", value],
    "--framework": lambda value: ["query", *DEMO, "--framework", value, "--event", "3"],
    "--event": lambda value: ["query", *DEMO, "--framework", "1,2|3", "--event", value],
    "--and": lambda value: ["query", *DEMO, "--framework", "1,2|3", "--event", "3", "--and", f"{value}@1,2|3"],
    "--mask": lambda value: ["rates", *DEMO, "--mask", value],
}


@pytest.mark.parametrize("value", ["", "x", "9", "3,1,2,3"], ids=["empty", "non-integer", "out-of-range", "repeated"])
@pytest.mark.parametrize("flag", sorted(_INDEX_FLAGS))
def test_bad_index_is_one_line_naming_its_flag(capsys, flag, value):
    code, out, err = run(capsys, *_INDEX_FLAGS[flag](value))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"chslit: error: {flag}: "), err


def _slits(*amplitudes, is_open=True, parts=None) -> str:
    slits = [{"label": f"S{i + 1}", "amplitude": {"re": a, "im": 0.0}, "open": is_open} for i, a in enumerate(amplitudes)]
    if parts is not None:
        slits[0]["parts"] = [{"label": f"p{j}", "amplitude": {"re": a, "im": 0.0}} for j, a in enumerate(parts)]
    return json.dumps({"version": 1, "name": "doc", "slits": slits})


#: One invocation per error type the CLI can meet: its scenario document
#: (None for the three-slit demo), the command after the source, the exit
#: code and the start of its one stderr line.
_REFUSALS = {
    "NotInFramework-event": (None, ["query", "--framework", "1,2|3", "--event", "1", "--given-detected"], 4,
                             "single-framework rule: event"),
    "NotInFramework-combination": (None, ["query", "--framework", "1,2|3", "--event", "3", "--and", "1@1|2,3"], 4,
                                   "single-framework rule: neither framework refines the other"),
    "DegenerateScenario-no-open-path": (_slits(1.0, 1.0, is_open=False), ["frameworks"], 2,
                                        "scenario 'doc' has no open path"),
    "DegenerateScenario-all-zero": (_slits(0.0, 0.0), ["frameworks"], 2, "all amplitudes vanish"),
    "SchemaError-truncated": ('{"version": 1,', ["frameworks"], 2, "$: scenario document is not valid JSON: "),
    "SchemaError-undecodable": (b"\xff{}", ["frameworks"], 2, "$: scenario document is not valid JSON: "),
    "SchemaError-wrong-shape": ("[]", ["frameworks"], 2, "$: expected a JSON object"),
    "PartSumMismatch": (_slits(1.0, 1.0, parts=[1.0, 1.0]), ["frameworks"], 2, "parts of slit 'S1' sum to"),
    "TooLarge": (None, ["frameworks", "--max-n", "2"], 2, "3 open paths exceeds the enumeration cap of 2"),
    "InconsistentSet": (None, ["query", "--framework", "1,3|2", "--event", "2"], 2,
                        "partition is not a consistent set"),
    "BadIndex": (None, ["check", "--partition", "1|1,2,3"], 2, "--partition: path 1 appears in two groups"),
    "ConditionUnsatisfied": (_slits(1.0, -1.0), ["query", "--framework", "1,2", "--event", "1,2", "--given-detected"],
                             5, "detection has zero probability"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_each_error_type_is_one_stderr_line_and_its_exit_code(capsys, tmp_path, case):
    document, argv, exit_code, message = _REFUSALS[case]
    if document is None:
        source = DEMO
    else:
        path = tmp_path / "doc.json"
        path.write_bytes(document if isinstance(document, bytes) else document.encode())
        source = ["--file", str(path)]
    code, out, err = run(capsys, argv[0], *source, *argv[1:])
    assert (code, out) == (exit_code, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"chslit: error: {message}"), err


def test_rates_json_round_trip(capsys):
    code, out, _ = run(capsys, "rates", *DEMO, "--mask", "1,2,3", "--all-single", "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["rate"] == 1.0
    assert payload["interference_deficit"] == -2.0
    assert [s["rate"] for s in payload["singles"]] == [1.0, 1.0, 1.0]


# -- sources and parser ----------------------------------------------------------------


def test_file_source(capsys, tmp_path):
    path = tmp_path / "three.json"
    path.write_text(save_scenario(builtin_scenario("three-slit-contradiction")))
    code, out, _ = run(capsys, "check", "--file", str(path), "--partition", "1,2|3")
    assert code == 0
    assert "consistent: yes" in out


def test_boolean_version_is_one_line_exit_2(capsys, tmp_path):
    doc = json.loads(save_scenario(builtin_scenario("three-slit-contradiction")))
    doc["version"] = True
    path = tmp_path / "bool-version.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "frameworks", "--file", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["chslit: error: version: expected 1, got True"]


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "check", "--file", "/no/such/file.json", "--partition", "1|2")
    assert code == 2


def test_unknown_demo_rejected_by_parser(capsys):
    code, _, err = run(capsys, "check", "--demo", "no-such", "--partition", "1")
    assert code == 2


# A bad choice of each kind, with the line chslit prints for it.
_INVALID_CHOICES = [
    (["check", *DEMO, "--partition", "1,2|3", "--mode", "bogus"],
     "argument --mode: invalid choice: 'bogus' (choose from 'weak', 'medium')"),
    (["check", "--demo", "bogus", "--partition", "1,2|3"],
     "argument --demo: invalid choice: 'bogus' "
     "(choose from 'three-slit-contradiction', 'two-slit-footnote', 'generic')"),
    (["check", *DEMO, "--partition", "1,2|3", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
    (["bogus"],
     "argument command: invalid choice: 'bogus' "
     "(choose from 'check', 'frameworks', 'query', 'contradictions', 'rates')"),
]


@pytest.mark.parametrize("argv, message", _INVALID_CHOICES)
def test_invalid_choice_message_is_worded_by_chslit(capsys, argv, message):
    # The same line on every Python version: argparse's own wording changed
    # in CPython 3.12.8 and 3.13.1.
    assert run(capsys, *argv) == (2, "", f"chslit: error: {message}\n")


def test_unknown_flag_rejected(capsys):
    code, _, _ = run(capsys, "check", *DEMO, "--partition", "1,2|3", "--plot")
    assert code == 2


# Each action as (option strings, dest, default, required, choices, nargs,
# metavar, help, name of its type).
_HELP = (["-h", "--help"], "help", argparse.SUPPRESS, False, None, 0, None, "show this help message and exit", None)
_SOURCE = [
    (["--file"], "file", None, False, None, None, None, "path to a scenario JSON document", None),
    (["--demo"], "demo", None, False, ["three-slit-contradiction", "two-slit-footnote", "generic"], None, None,
     "built-in scenario", None),
]
_MAX_N = (["--max-n"], "max_n", None, False, None, None, None,
          "enumeration cap on open paths (default 12, or $CH_MAX_PATHS)", "_path_cap")
_JUDGE = [
    (["--mode"], "mode", "medium", False, ["weak", "medium"], None, None,
     "consistency condition: full off-diagonal (medium) or real part only (weak)", None),
    (["--tol"], "tol", 1e-10, False, None, None, None,
     "relative consistency tolerance, finite and non-negative (default 1e-10)", "_tolerance"),
]
_FORMAT = (["--format"], "format", "text", False, ["text", "json"], None, None, "output format", None)
_JUDGED = {"mode": "medium", "tol": 1e-10}

# Each parser as (description, actions, the --file/--demo group, the defaults
# that main reads), keyed by prog.
_PARSER_CONTRACT = {
    "chslit": ("Consistent-histories analysis of multi-slit scenarios.", [
        _HELP,
        ([], "command", None, True, ["check", "frameworks", "query", "contradictions", "rates"], "A...", None, None,
         None),
    ], [], {}),
    "chslit check": (None, [
        _HELP, *_SOURCE,
        (["--partition"], "partition", None, True, None, None, None,
         "groups of 1-based open-path positions, e.g. '1,2|3'", None),
        *_JUDGE, _FORMAT,
    ], [(True, ["--file", "--demo"])],
        {"handler": "_cmd_check", "render": "_check_text", "kind": "consistency", **_JUDGED}),
    "chslit frameworks": (None, [_HELP, *_SOURCE, _MAX_N, *_JUDGE, _FORMAT], [(True, ["--file", "--demo"])],
                          {"handler": "_cmd_frameworks", "render": "_frameworks_text", "kind": "frameworks", **_JUDGED}),
    "chslit query": (
        "Ask for the probability of a path event inside a single consistent framework. Answers are relative to the "
        "chosen analysis: different frameworks may assign different certainties to a detected particle's path, and "
        "the tool will not say which path was 'really' taken or combine answers across incompatible frameworks.", [
            _HELP, *_SOURCE,
            (["--framework"], "framework", None, True, None, None, None, "partition text defining the analysis", None),
            (["--event"], "event", None, True, None, None, None,
             "comma-separated 1-based open-path positions, e.g. '2,3'", None),
            (["--given-detected"], "given_detected", False, False, None, 0, None, "condition on the detector firing",
             None),
            (["--and"], "and_query", None, False, None, None, "EVENT@PARTITION",
             "second framework-tagged query; the conjunction is answered only when the two frameworks share a context",
             None),
            *_JUDGE, _FORMAT,
        ], [(True, ["--file", "--demo"])],
        {"handler": "_cmd_query", "render": "_query_text", "kind": "query", **_JUDGED}),
    "chslit contradictions": (None, [_HELP, *_SOURCE, _MAX_N, *_JUDGE, _FORMAT], [(True, ["--file", "--demo"])],
                              {"handler": "_cmd_contradictions", "render": "_contradictions_text",
                               "kind": "contradictions", **_JUDGED}),
    "chslit rates": (None, [
        _HELP, *_SOURCE,
        (["--mask"], "mask", None, False, None, None, None,
         "comma-separated 1-based path indices to hold open, e.g. '1,2,3'", None),
        (["--all-single"], "all_single", False, False, None, 0, None,
         "also print each single-path rate and the interference deficit", None),
        _FORMAT,
    ], [(True, ["--file", "--demo"])],
        {"handler": "_cmd_rates", "render": "_rates_text", "kind": "rates", "mode": None, "tol": None}),
}


def test_the_parser_declares_each_command_and_option_as_documented():
    # Read from argparse's declarations, not from --help, whose layout
    # changes with the Python version and the terminal width.
    parser = build_parser()
    (commands,) = (action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    assert [(choice.dest, choice.help) for choice in commands._choices_actions] == [
        ("check", "check one partition for consistency"),
        ("frameworks", "enumerate all consistent frameworks"),
        ("query", "probability of a path event within one framework"),
        ("contradictions", "search framework pairs for clashing certainties"),
        ("rates", "counting rates for hypothetical open masks"),
    ]
    declared = {}
    for each in (parser, *commands.choices.values()):
        actions = [
            (action.option_strings, action.dest, action.default, action.required,
             None if action.choices is None else list(action.choices), action.nargs, action.metavar, action.help,
             getattr(action.type, "__name__", None))
            for action in each._actions
        ]
        groups = [(group.required, [flag for action in group._group_actions for flag in action.option_strings])
                  for group in each._mutually_exclusive_groups]
        # What parse_args leaves in the namespace: an action's default wins
        # over a parser-level one for the same dest.
        values = {**each._defaults, **{action.dest: action.default for action in each._actions}}
        defaults = {name: getattr(values[name], "__name__", values[name])
                    for name in ("handler", "render", "kind", "mode", "tol") if name in values}
        declared[each.prog] = (each.description, actions, groups, defaults)
    assert declared == _PARSER_CONTRACT


def test_json_reports_share_the_envelope(capsys):
    for argv in (
        ["check", *DEMO, "--partition", "1,2|3"],
        ["frameworks", *DEMO],
        ["query", *DEMO, "--framework", "1,2|3", "--event", "3"],
        ["contradictions", *DEMO],
        ["rates", *DEMO, "--mask", "1"],
    ):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"kind", "scenario", "mode", "tolerance", "payload"}
        assert report["scenario"] == "three-slit-contradiction"


# -- tolerance and caps ------------------------------------------------------------------


def test_zero_tolerance_keeps_the_exact_cancellations(capsys):
    # The detected/undetected cross entries vanish analytically, so --tol 0
    # must not reject the coarsest partition or the two cancelling splits.
    code, out, _ = run(capsys, "frameworks", *DEMO, "--tol", "0")
    assert code == 0
    assert "consistent frameworks: 3" in out
    code, out, _ = run(capsys, "check", *DEMO, "--partition", "1,2,3", "--tol", "0")
    assert code == 0
    assert "max violation: 0" in out.splitlines()


def test_negative_zero_tolerance_is_reported_as_zero(capsys):
    code, out, _ = run(capsys, "check", *DEMO, "--partition", "1,2|3", "--tol", "-0")
    assert code == 0
    assert "tolerance used: 0" in out.splitlines()
    code, out, _ = run(capsys, "check", *DEMO, "--partition", "1,2|3", "--tol", "-0", "--format", "json")
    report = json.loads(out)
    for value in (report["tolerance"], report["payload"]["tolerance_used"]):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["check", *DEMO, "--partition", "1,2,3", "--tol", "nan"],
        ["check", *DEMO, "--partition", "1,2,3", "--tol", "inf"],
        ["check", *DEMO, "--partition", "1,2,3", "--tol", "-1e-10"],
        ["check", *DEMO, "--partition", "1,2,3", "--tol", "tiny"],
        ["frameworks", *DEMO, "--tol", "nan"],
        ["contradictions", *DEMO, "--tol", "-inf"],
        ["query", *DEMO, "--framework", "1,2|3", "--event", "3", "--tol", "nan"],
        ["frameworks", *DEMO, "--max-n", "0"],
        ["contradictions", *DEMO, "--max-n", "-3"],
        ["frameworks", *DEMO, "--max-n", "two"],
    ],
)
def test_bad_tolerance_or_cap_flag_is_one_line_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("chslit: error: argument --")
    assert "invalid _" not in err


@pytest.mark.parametrize("raw", ["0", "-1", "1.5"])
def test_cap_environment_variable_must_be_at_least_one(capsys, monkeypatch, raw):
    monkeypatch.setenv("CH_MAX_PATHS", raw)
    code, out, err = run(capsys, "frameworks", *DEMO)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "CH_MAX_PATHS" in err


# -- amplitude scale ---------------------------------------------------------------------


def _paradox_file(tmp_path, scale):
    slits = [
        {"label": f"S{i + 1}", "amplitude": {"re": a * scale, "im": 0.0}, "open": True}
        for i, a in enumerate([1.0, -1.0, 1.0])
    ]
    path = tmp_path / f"paradox-{scale:g}.json"
    path.write_text(json.dumps({"version": 1, "name": "paradox", "slits": slits}))
    return str(path)


@pytest.mark.parametrize("scale", [1e200, 1e-200, -1e300, 5e-324])
def test_extreme_amplitude_scales_give_the_unit_scale_output(capsys, tmp_path, scale):
    unit, scaled = _paradox_file(tmp_path, 1.0), _paradox_file(tmp_path, scale)
    commands = [
        ["check", "--partition", "1,2|3"],
        ["check", "--partition", "1,3|2"],
        ["check", "--partition", "1|2|3", "--mode", "weak"],
        ["frameworks"],
        ["frameworks", "--tol", "0"],
        ["query", "--framework", "1,2|3", "--event", "3", "--given-detected"],
        ["query", "--framework", "1|2,3", "--event", "2,3", "--given-detected"],
        ["contradictions"],
    ]
    for command in commands:
        expected = run(capsys, *command, "--file", unit)
        assert run(capsys, *command, "--file", scaled) == expected, command


def test_rates_too_large_for_a_float_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "rates", "--file", _paradox_file(tmp_path, 1e200), "--mask", "1,2,3")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "too large" in err
    # Each single rate fits a float, their sum does not.
    slits = [{"label": f"S{i}", "amplitude": {"re": a, "im": 0.0}, "open": True} for i, a in ((1, 1.2e154), (2, -1.2e154))]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"version": 1, "name": "huge", "slits": slits}))
    code, out, err = run(capsys, "rates", "--file", str(path), "--all-single")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "too large" in err


# -- arbitrary input ---------------------------------------------------------------------


_AMPLITUDES = st.one_of(
    st.sampled_from([1 + 0j, -1 + 0j, 1j, -1j, 0.5 + 0j, 2 - 1j, 0j]),
    st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False),
)
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.floats(), st.integers(-10**400, 10**400))
_BAD_INDICES = st.one_of(st.sampled_from(["", "x", "9", "1|1", "1,,2"]), st.text(alphabet="0123,|@ x-", max_size=6))


def _amplitude_field(z: complex) -> dict[str, float]:
    return {"re": z.real, "im": z.imag}


@st.composite
def _documents(draw) -> tuple[bytes, int]:
    """A scenario document with at most six paths and its number of open
    paths.  One field is broken in a quarter of them, and one in eight is
    arbitrary bytes."""
    if draw(st.sampled_from(["document"] * 7 + ["bytes"])) == "bytes":
        return draw(st.binary(max_size=12)), 3
    slits = []
    n_open = 0
    for i in range(draw(st.integers(1, 3))):
        parts = draw(st.lists(_AMPLITUDES, max_size=2))
        amplitude = sum(parts) if parts else draw(_AMPLITUDES)
        is_open = draw(st.sampled_from([True, True, False]))
        slit = {"label": f"S{i + 1}", "amplitude": _amplitude_field(amplitude), "open": is_open}
        if parts:
            slit["parts"] = [{"label": f"p{j}", "amplitude": _amplitude_field(a)} for j, a in enumerate(parts)]
        slits.append(slit)
        n_open += is_open * max(len(parts), 1)
    doc = {"version": 1, "name": "fuzz", "slits": slits}
    if draw(st.sampled_from(["keep"] * 3 + ["break"])) == "break":
        target = draw(st.sampled_from([doc, *slits]))
        target[draw(st.sampled_from(sorted(target)))] = draw(_JUNK)
    return json.dumps(doc).encode(), n_open


def _partitions(n: int):
    """Partition text over positions 1..n, from each position's group number."""
    def text(numbers: list[int]) -> str:
        groups: dict[int, list[str]] = {}
        for position, number in enumerate(numbers, 1):
            groups.setdefault(number, []).append(str(position))
        return "|".join(",".join(members) for members in groups.values())

    return st.lists(st.integers(0, 2), min_size=n, max_size=n).map(text) if n else st.just("1")


def _mostly(good, bad):
    """Values from ``good`` three times in four, else from ``bad``."""
    return st.sampled_from([good, good, good, bad]).flatmap(lambda strategy: strategy)


def _flags(command: str, n: int) -> tuple[dict, dict]:
    """The flags a command requires and those it may take, with values for
    a scenario of n open paths."""
    partition = _mostly(_partitions(n), _BAD_INDICES)
    event = _mostly(_partitions(n).map(lambda text: text.split("|")[0]), _BAD_INDICES)
    caps = st.sampled_from(["12", "1", "3", "0", "x"])
    modes = {
        "--mode": st.sampled_from(["medium", "weak", "strong"]),
        "--tol": st.sampled_from(["1e-10", "0", "-0", "1e-3", "nan", "-1", "x"]),
        "--format": st.sampled_from(["text", "json"]),
    }
    return {
        "check": ({"--partition": partition}, modes),
        "frameworks": ({}, {"--max-n": caps, **modes}),
        "query": (
            {"--framework": partition, "--event": event},
            {"--and": _mostly(st.tuples(event, partition).map("@".join), _BAD_INDICES), "--given-detected": None,
             **modes},
        ),
        "contradictions": ({}, {"--max-n": caps, **modes}),
        "rates": ({"--mask": event}, {"--all-single": None, "--format": modes["--format"]}),
    }[command]


@settings(max_examples=150, deadline=None)
@given(document=_documents(), command=st.sampled_from(["check", "frameworks", "query", "contradictions", "rates"]),
       data=st.data())
def test_main_returns_an_exit_code_and_never_raises(tmp_path_factory, document, command, data):
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_bytes(document[0])
    required, optional = _flags(command, document[1])
    argv = [command, "--file", str(path)]
    for flag, values in required.items():
        argv += [flag, data.draw(values)]
    for flag, values in optional.items():
        if data.draw(st.booleans()):
            argv += [flag] if values is None else [flag, data.draw(values)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)


# -- packaging ----------------------------------------------------------------------------


def _run_every_command(python_flags: list[str], then: str) -> None:
    """Run each command once in a fresh interpreter, then the check ``then``."""
    script = (
        "import sys, chslit.cli\n"
        "demo = ['--demo', 'three-slit-contradiction']\n"
        "for argv in (['check', *demo, '--partition', '1,2|3'], ['frameworks', *demo],\n"
        "             ['query', *demo, '--framework', '1,2|3', '--event', '3', '--given-detected'],\n"
        "             ['contradictions', *demo], ['rates', *demo, '--mask', '1,2']):\n"
        "    assert chslit.cli.main(argv) == 0, argv\n"
    ) + then
    env = dict(os.environ, PYTHONPATH=str(Path(chslit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, *python_flags, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_every_command_runs_without_numpy():
    _run_every_command([], "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
                           "assert 'chslit.reference' not in sys.modules, 'the reference model was imported'\n")


def test_every_command_runs_without_dataclasses_inspect_or_typing():
    # -S: a site hook (a .pth file of an installed package) may import typing
    # before chslit loads; without site, none of these three is loaded unless
    # chslit asks for it.
    _run_every_command(["-S"], "loaded = {'dataclasses', 'inspect', 'typing'} & set(sys.modules)\nassert not loaded, loaded\n")


#: Runs each command line read from stdin (a JSON list) through chslit.cli.main,
#: with the source tree given as argv[1], and writes every exit code, stdout
#: and stderr as JSON.  Only the standard library is needed.
_CLI_CHILD = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from chslit.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([argv, code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _other_interpreters() -> list[str]:
    """One working CPython >= 3.10 per patch release other than this one's."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 15)]
    pyenv = Path.home() / ".pyenv" / "versions"
    if pyenv.is_dir():
        candidates += sorted(map(str, pyenv.glob("3.*/bin/python")))
    found = {}
    for python in filter(None, candidates):
        try:
            proc = subprocess.run([python, "-c", "import sys; print(*sys.version_info[:3])"],
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0:
            version = tuple(map(int, proc.stdout.split()))
            if version >= (3, 10) and version != sys.version_info[:3]:
                found.setdefault(version, python)
    return sorted(found.values())


def test_output_is_the_same_on_every_python_version(tmp_path):
    others = _other_interpreters()
    if not others:
        pytest.skip("no other CPython >= 3.10 found")
    six = tmp_path / "six.json"
    six.write_text(save_scenario(make_scenario([1, -1, 0.5 + 0.25j, -0.5 - 0.25j, 1j, 2 - 1j])))
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "name": "bad", "slits": [{"label": "S1", "amplitude": 1}]}')
    # Each source with a partition to check and its finest partition to query.
    sources = [(["--demo", name], "1,2|3", "1|2|3")
               for name in ("three-slit-contradiction", "two-slit-footnote", "generic")]
    sources.append((["--file", str(six)], "1,2|3|4,5|6", "1|2|3|4|5|6"))
    argvs = []
    for source, partition, finest in sources:
        for fmt in ("text", "json"):
            for mode in ("weak", "medium"):
                for tol in ("0", "1e-10", "1e-3"):
                    options = [*source, "--mode", mode, "--tol", tol, "--format", fmt]
                    argvs += [["check", *options, "--partition", partition],
                              ["frameworks", *options], ["contradictions", *options]]
            argvs += [["query", *source, "--framework", finest, "--event", "1,3", "--given-detected", "--format", fmt],
                      ["rates", *source, "--mask", "1,2", "--all-single", "--format", fmt]]
    # Input errors that chslit words itself.
    argvs += [["check", *DEMO, "--partition", "1,9"], ["check", *DEMO, "--partition", "1,2|3", "--tol", "-1"],
              ["frameworks", "--file", str(bad)], ["frameworks", "--file", str(tmp_path / "missing.json")],
              *(argv for argv, _ in _INVALID_CHOICES)]
    src = str(Path(chslit.__file__).resolve().parents[1])

    def outputs(python: str) -> list:
        proc = subprocess.run([python, "-I", "-B", "-c", _CLI_CHILD, src], input=json.dumps(argvs),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    expected = outputs(sys.executable)
    assert {code for _, code, _, _ in expected} >= {0, 2, 3}
    for python in others:
        got = outputs(python)
        assert len(got) == len(expected)
        for mine, theirs in zip(expected, got):
            assert theirs == mine, python


def test_stdout_closed_by_its_reader_exits_0_quietly(tmp_path):
    # Seven alternating paths give 33,750 records, far more than a pipe holds.
    doc = {
        "version": 1,
        "name": "alternating",
        "slits": [{"label": f"S{i}", "amplitude": {"re": (-1.0) ** i, "im": 0.0}, "open": True} for i in range(7)],
    }
    path = tmp_path / "alternating.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(chslit.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "chslit.cli", "contradictions", "--file", str(path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(64).startswith(b"scenario: alternating")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
