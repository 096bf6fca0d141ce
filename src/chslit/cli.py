"""Command-line interface: check analyses, enumerate frameworks, query
events, list contradictions, and print counting rates.

Exit codes are stable: 0 success, 2 input error, 3 inconsistent verdict,
4 single-framework-rule violation, 5 conditioning on a null event.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from .core import (
    SlitScenario,
    counting_rate,
    format_scenario_partition,
    parse_scenario_partition,
)
from .engine import DETECTED, UNDETECTED, DEFAULT_TOLERANCE, MODE_MEDIUM, MODES, build_experiment, check_consistency
from .errors import (
    BadIndex,
    ChslitError,
    ConditionUnsatisfied,
    MeaninglessCombination,
    NotExhaustive,
    NotInFramework,
    OverlappingGroups,
)
from .frameworks import (
    DEFAULT_MAX_PATHS,
    Framework,
    build_framework,
    combine_queries,
    enumerate_consistent_frameworks,
    find_contradictions,
    query_event,
)
from .scenarios import BUILTIN_SCENARIOS, builtin_scenario, load_scenario

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_INCONSISTENT = 3
EXIT_FRAMEWORK_RULE = 4
EXIT_NULL_CONDITION = 5

MAX_PATHS_ENV = "CH_MAX_PATHS"


@dataclass
class Report:
    """Structured result of one command, rendered as text or JSON."""

    kind: str
    payload: dict[str, Any]
    scenario_name: str
    mode: str | None = None
    tolerance: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "scenario": self.scenario_name,
            "mode": self.mode,
            "tolerance": self.tolerance,
            "payload": self.payload,
        }


def _fmt(x: float) -> str:
    """Probabilities and violations with 12 significant digits, so exact
    zeros and ones print as such."""
    return format(float(x), ".12g")


def _fail(message: str) -> None:
    print(f"chslit: error: {message}", file=sys.stderr)


def _emit(report: Report, lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print("\n".join(lines))


def _load_source(args: argparse.Namespace) -> SlitScenario:
    if args.demo is not None:
        return builtin_scenario(args.demo)
    return load_scenario(Path(args.file).read_text(encoding="utf-8"))


def _scenario_partition(scenario: SlitScenario, text: str, flag: str):
    """Parse partition text, naming the offending flag in any error."""
    try:
        return parse_scenario_partition(scenario, text)
    except (OverlappingGroups, NotExhaustive, BadIndex) as exc:
        raise type(exc)(f"{flag}: {exc}") from None


def _paths_from_text(text: str, paths: Sequence[int], flag: str) -> frozenset[int]:
    """Parse comma-separated 1-based numbers, each naming an entry of ``paths``."""
    members: set[int] = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise BadIndex(f"empty index in {flag}")
        try:
            number = int(token)
        except ValueError:
            raise BadIndex(f"cannot parse index {token!r} in {flag}") from None
        if not 1 <= number <= len(paths):
            raise BadIndex(f"{flag}: {number} out of range 1..{len(paths)}")
        members.add(paths[number - 1])
    return frozenset(members)


def _event_positions(scenario: SlitScenario, event: frozenset[int]) -> list[int]:
    """1-based open positions, as used in partition text, of an event's paths."""
    return sorted(scenario.open_indices.index(i) + 1 for i in event)


def _event_text(scenario: SlitScenario, event: frozenset[int]) -> str:
    return "{%s}" % ",".join(str(p) for p in _event_positions(scenario, event))


def _event_labels(scenario: SlitScenario, event: frozenset[int]) -> list[str]:
    return [scenario.path_label(i) for i in sorted(event)]


def _tolerance(text: str) -> float:
    value = float(text)
    if not (value >= 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a finite non-negative number, got {text!r}")
    return value


def _path_cap(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


def _max_paths(args: argparse.Namespace) -> int:
    if getattr(args, "max_n", None) is not None:
        return args.max_n
    raw = os.environ.get(MAX_PATHS_ENV)
    if raw is None:
        return DEFAULT_MAX_PATHS
    try:
        return _path_cap(raw)
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"{MAX_PATHS_ENV} must be an integer of at least 1, got {raw!r}") from None


def _framework_payload(scenario: SlitScenario, framework: Framework) -> dict[str, Any]:
    rows = []
    for branch in (DETECTED, UNDETECTED):
        for group in framework.partition.groups:
            rows.append(
                {
                    "group": _event_positions(scenario, group),
                    "labels": _event_labels(scenario, group),
                    "branch": branch,
                    "probability": framework.probabilities[(group, branch)],
                }
            )
    return {
        "partition": format_scenario_partition(scenario, framework.partition),
        "detected_probability": framework.detected_total(),
        "probabilities": rows,
    }


def _framework_lines(scenario: SlitScenario, framework: Framework) -> list[str]:
    lines = [f"framework {format_scenario_partition(scenario, framework.partition)}"]
    for branch in (DETECTED, UNDETECTED):
        for group in framework.partition.groups:
            p = framework.probabilities[(group, branch)]
            lines.append(f"  P({_event_text(scenario, group)}, {branch}) = {_fmt(p)}")
    return lines


# -- command handlers ---------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    scenario = _load_source(args)
    model = build_experiment(scenario)
    partition = _scenario_partition(scenario, args.partition, "--partition")
    report = check_consistency(model, partition, mode=args.mode, tolerance=args.tol)
    offending = None if report.offending_pair is None else list(report.offending_pair)
    payload = {
        "partition": format_scenario_partition(scenario, partition),
        "consistent": report.consistent,
        "max_violation": report.max_violation,
        "tolerance_used": report.tolerance_used,
        "offending_pair": offending,
    }
    lines = [
        f"scenario: {scenario.name}",
        f"partition: {payload['partition']}",
        f"mode: {args.mode}",
        f"consistent: {'yes' if report.consistent else 'no'}",
        f"max violation: {_fmt(report.max_violation)}",
        f"tolerance used: {_fmt(report.tolerance_used)}",
    ]
    if offending is not None:
        lines.append(f"offending pair: {offending[0]} / {offending[1]}")
    _emit(Report("consistency", payload, scenario.name, args.mode, args.tol), lines, args.format)
    return EXIT_OK if report.consistent else EXIT_INCONSISTENT


def _cmd_frameworks(args: argparse.Namespace) -> int:
    scenario = _load_source(args)
    model = build_experiment(scenario)
    frameworks = enumerate_consistent_frameworks(
        model, mode=args.mode, tolerance=args.tol, max_paths=_max_paths(args)
    )
    payload = {
        "count": len(frameworks),
        "frameworks": [_framework_payload(scenario, f) for f in frameworks],
    }
    legend = " ".join(
        f"{j + 1}={scenario.path_label(index)}" for j, index in enumerate(scenario.open_indices)
    )
    lines = [
        f"scenario: {scenario.name}",
        f"mode: {args.mode}",
        f"open paths: {legend}",
        f"consistent frameworks: {len(frameworks)}",
    ]
    for framework in frameworks:
        lines.extend(_framework_lines(scenario, framework))
    _emit(Report("frameworks", payload, scenario.name, args.mode, args.tol), lines, args.format)
    return EXIT_OK


def _query_line(scenario: SlitScenario, framework: Framework, event: frozenset[int], given_detected: bool, p: float) -> str:
    tag = format_scenario_partition(scenario, framework.partition)
    condition = " | detected" if given_detected else ""
    return f"In analysis {tag}: P(went through {_event_text(scenario, event)}{condition}) = {_fmt(p)}"


def _cmd_query(args: argparse.Namespace) -> int:
    scenario = _load_source(args)
    model = build_experiment(scenario)
    partition = _scenario_partition(scenario, args.framework, "--framework")
    framework = build_framework(model, partition, mode=args.mode, tolerance=args.tol)
    event = _paths_from_text(args.event, scenario.open_indices, "--event")
    probability = query_event(framework, event, given_detected=args.given_detected)
    payload: dict[str, Any] = {
        "framework": format_scenario_partition(scenario, framework.partition),
        "event": _event_positions(scenario, event),
        "labels": _event_labels(scenario, event),
        "given_detected": args.given_detected,
        "probability": probability,
    }
    lines = [_query_line(scenario, framework, event, args.given_detected, probability)]
    if args.and_query is not None:
        if "@" not in args.and_query:
            raise ValueError("--and expects EVENT@PARTITION, e.g. '2,3@1|2,3'")
        event_text, partition_text = args.and_query.split("@", 1)
        other_partition = _scenario_partition(scenario, partition_text, "--and")
        other = build_framework(model, other_partition, mode=args.mode, tolerance=args.tol)
        other_event = _paths_from_text(event_text, scenario.open_indices, "--and")
        other_probability = query_event(other, other_event, given_detected=args.given_detected)
        payload["and"] = {
            "framework": format_scenario_partition(scenario, other.partition),
            "event": _event_positions(scenario, other_event),
            "labels": _event_labels(scenario, other_event),
            "probability": other_probability,
        }
        lines.append(_query_line(scenario, other, other_event, args.given_detected, other_probability))
        # Raises MeaninglessCombination (exit 4) unless one analysis refines the other.
        combine = combine_queries(framework, other)
        joint_event = event & other_event
        joint = query_event(combine, joint_event, given_detected=args.given_detected)
        payload["conjunction"] = {
            "framework": format_scenario_partition(scenario, combine.partition),
            "event": _event_positions(scenario, joint_event),
            "labels": _event_labels(scenario, joint_event),
            "probability": joint,
        }
        tag = format_scenario_partition(scenario, combine.partition)
        condition = " | detected" if args.given_detected else ""
        lines.append(
            f"conjunction in analysis {tag}: "
            f"P(went through {_event_text(scenario, joint_event)}{condition}) = {_fmt(joint)}"
        )
    _emit(Report("query", payload, scenario.name, args.mode, args.tol), lines, args.format)
    return EXIT_OK


def _cmd_contradictions(args: argparse.Namespace) -> int:
    scenario = _load_source(args)
    model = build_experiment(scenario)
    records = find_contradictions(model, mode=args.mode, tolerance=args.tol, max_paths=_max_paths(args))
    rows = []
    lines = [f"scenario: {scenario.name}", f"mode: {args.mode}"]
    for record in records:
        tag_a = format_scenario_partition(scenario, record.framework_a.partition)
        tag_b = format_scenario_partition(scenario, record.framework_b.partition)
        rows.append(
            {
                "kind": record.kind,
                "framework_a": tag_a,
                "event_a": _event_positions(scenario, record.event_a),
                "labels_a": _event_labels(scenario, record.event_a),
                "p_a": record.p_a,
                "framework_b": tag_b,
                "event_b": _event_positions(scenario, record.event_b),
                "labels_b": _event_labels(scenario, record.event_b),
                "p_b": record.p_b,
            }
        )
        joiner = "vs" if record.kind == "disjoint-certainty" else "but"
        lines.append(
            f"{record.kind}: P({_event_text(scenario, record.event_a)} | detected) = {_fmt(record.p_a)} "
            f"in analysis {tag_a} {joiner} P({_event_text(scenario, record.event_b)} | detected) = "
            f"{_fmt(record.p_b)} in analysis {tag_b}"
        )
        lines.append(f"  paths {{{','.join(_event_labels(scenario, record.event_a))}}}"
                     f" {joiner} {{{','.join(_event_labels(scenario, record.event_b))}}}")
    if not records:
        lines.append("no contradictions found")
    payload = {"count": len(records), "records": rows}
    _emit(Report("contradictions", payload, scenario.name, args.mode, args.tol), lines, args.format)
    return EXIT_OK


def _cmd_rates(args: argparse.Namespace) -> int:
    scenario = _load_source(args)
    if args.mask is None and not args.all_single:
        raise ValueError("rates needs --mask and/or --all-single")
    payload: dict[str, Any] = {}
    lines = [f"scenario: {scenario.name}"]
    if args.mask is not None:
        mask = _paths_from_text(args.mask, range(scenario.n_paths), "--mask")
        rate = counting_rate(scenario, mask)
        payload["mask"] = sorted(i + 1 for i in mask)
        payload["mask_labels"] = _event_labels(scenario, mask)
        payload["rate"] = rate
        lines.append(f"rate({','.join(str(i + 1) for i in sorted(mask))}) = {_fmt(rate)}")
    if args.all_single:
        singles = []
        total = 0.0
        lines.append("single-path rates:")
        for index in scenario.open_indices:
            rate = counting_rate(scenario, {index})
            singles.append({"path": index + 1, "label": scenario.path_label(index), "rate": rate})
            total += rate
            lines.append(f"  {scenario.path_label(index)} (path {index + 1}): {_fmt(rate)}")
        if math.isinf(total):
            raise ValueError("sum of single-path rates is too large for a float")
        all_open_rate = counting_rate(scenario, scenario.open_indices)
        deficit = all_open_rate - total
        payload["singles"] = singles
        payload["singles_total"] = total
        payload["all_open_rate"] = all_open_rate
        payload["interference_deficit"] = deficit
        lines.append(f"sum of singles: {_fmt(total)}")
        lines.append(f"all-open rate: {_fmt(all_open_rate)}")
        lines.append(f"interference deficit: {_fmt(deficit)}")
    _emit(Report("rates", payload, scenario.name, None, None), lines, args.format)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", help="path to a scenario JSON document")
    source.add_argument("--demo", choices=BUILTIN_SCENARIOS, help="built-in scenario")


def _add_common_arguments(parser: argparse.ArgumentParser, with_mode: bool = True) -> None:
    if with_mode:
        parser.add_argument("--mode", choices=MODES, default=MODE_MEDIUM,
                            help="consistency condition: full off-diagonal (medium) or real part only (weak)")
        parser.add_argument("--tol", type=_tolerance, default=DEFAULT_TOLERANCE,
                            help="relative consistency tolerance, finite and non-negative (default 1e-10)")
    parser.add_argument("--format", choices=["text", "json"], default="text", help="output format")


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument on one line, like every other input error."""

    def error(self, message: str):
        _fail(message)
        raise SystemExit(EXIT_INPUT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chslit",
        description="Consistent-histories analysis of multi-slit scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="check one partition for consistency")
    _add_source_arguments(check)
    check.add_argument("--partition", required=True,
                       help="groups of 1-based open-path positions, e.g. '1,2|3'")
    _add_common_arguments(check)
    check.set_defaults(handler=_cmd_check)

    frameworks = sub.add_parser("frameworks", help="enumerate all consistent frameworks")
    _add_source_arguments(frameworks)
    frameworks.add_argument("--max-n", type=_path_cap, default=None,
                            help=f"enumeration cap on open paths (default {DEFAULT_MAX_PATHS}, or ${MAX_PATHS_ENV})")
    _add_common_arguments(frameworks)
    frameworks.set_defaults(handler=_cmd_frameworks)

    query = sub.add_parser(
        "query",
        help="probability of a path event within one framework",
        description=(
            "Ask for the probability of a path event inside a single consistent "
            "framework. Answers are relative to the chosen analysis: different "
            "frameworks may assign different certainties to a detected particle's "
            "path, and the tool will not say which path was 'really' taken or "
            "combine answers across incompatible frameworks."
        ),
    )
    _add_source_arguments(query)
    query.add_argument("--framework", required=True, help="partition text defining the analysis")
    query.add_argument("--event", required=True,
                       help="comma-separated 1-based open-path positions, e.g. '2,3'")
    query.add_argument("--given-detected", action="store_true", help="condition on the detector firing")
    query.add_argument("--and", dest="and_query", default=None, metavar="EVENT@PARTITION",
                       help="second framework-tagged query; the conjunction is answered only "
                            "when the two frameworks share a context")
    _add_common_arguments(query)
    query.set_defaults(handler=_cmd_query)

    contradictions = sub.add_parser("contradictions", help="search framework pairs for clashing certainties")
    _add_source_arguments(contradictions)
    contradictions.add_argument("--max-n", type=_path_cap, default=None,
                                help=f"enumeration cap on open paths (default {DEFAULT_MAX_PATHS}, or ${MAX_PATHS_ENV})")
    _add_common_arguments(contradictions)
    contradictions.set_defaults(handler=_cmd_contradictions)

    rates = sub.add_parser("rates", help="counting rates for hypothetical open masks")
    _add_source_arguments(rates)
    rates.add_argument("--mask", default=None,
                       help="comma-separated 1-based path indices to hold open, e.g. '1,2,3'")
    rates.add_argument("--all-single", action="store_true",
                       help="also print each single-path rate and the interference deficit")
    _add_common_arguments(rates, with_mode=False)
    rates.set_defaults(handler=_cmd_rates)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``| head``): that is not an input error.
        # Point stdout at the null device so that the interpreter's final
        # flush of what is still buffered does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (NotInFramework, MeaninglessCombination) as exc:
        _fail(f"single-framework rule: {exc}")
        return EXIT_FRAMEWORK_RULE
    except ConditionUnsatisfied as exc:
        _fail(str(exc))
        return EXIT_NULL_CONDITION
    except ChslitError as exc:
        _fail(str(exc))
        return EXIT_INPUT_ERROR
    except (OSError, ValueError) as exc:
        _fail(str(exc))
        return EXIT_INPUT_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
